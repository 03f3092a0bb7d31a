//go:build race

package transport

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = true
