//go:build !race

package qbism

const raceEnabled = false
