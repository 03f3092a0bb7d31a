//go:build race

package daemon

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = true
