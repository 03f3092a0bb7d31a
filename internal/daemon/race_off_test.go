//go:build !race

package daemon

const raceEnabled = false
