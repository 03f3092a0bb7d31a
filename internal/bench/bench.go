// Package bench holds the host fingerprint the repo benchmark
// (benchmark/) stamps on every run it records.
package bench

import "runtime"

// Host fingerprints the machine a benchmark ran on. Simulated-clock
// numbers are host-independent; wall-clock numbers are only meaningful
// next to these fields (a 1-CPU container pins every parallel speedup
// near 1x no matter how good the executor is).
type Host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// CurrentHost captures the running process's host fingerprint.
func CurrentHost() Host {
	return Host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}
