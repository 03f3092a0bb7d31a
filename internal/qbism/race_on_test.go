//go:build race

package qbism

// raceEnabled reports that the test binary was built with -race.
const raceEnabled = true
