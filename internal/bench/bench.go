// Package bench holds the host fingerprint the repo benchmark
// (benchmark/) stamps on every run it records, and the exact allocation
// counts the allocation budget tests hold the code to.
package bench

import (
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

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

// AllocsPerCall is the mean number of heap allocations a call of f makes
// over n calls, measured as testing.AllocsPerRun measures it — on one
// processor, after one call to warm up — but as a float: AllocsPerRun
// divides as integers, so its ceiling of 0 admits up to n-1 allocations
// in n calls, where this one's admits none.
//
// The runtime allocates on its own, and a process-wide count sees it. The
// collector is off while f runs, after one collection and a pause for the
// work it sets off (the unique package's map cleanup), so what is left is
// the type-assertion and type-switch caches: the runtime builds a site's
// cache at a random one of the calls that miss it, about 1 in 1024, so it
// allocates at a call no warm-up can pin down. A single measurement reads
// it now and then — 6.020 where the TCP daemon chain makes 6, 1.100 where
// a kept full-study reply is 1 — so the count is the least of up to three
// measurements, stopping at one of 0. An allocation that f makes in only
// some of its calls would hide in that least, so when the measurements
// differ each is passed to logf (a test's t.Logf) and shows in the test
// output. With the collector off, keep n × the bytes f allocates small.
func AllocsPerCall(logf func(format string, args ...any), n int, f func()) float64 {
	return leastOfThree(logf, func() float64 { return mallocs(n, f, f) })
}

// AllocsInWindow is the number of heap allocations one run of window
// makes, measured as AllocsPerCall measures a call — on one processor,
// after a collection and a pause, with the collector off, as a float,
// the least of up to three measurements — but with no warm-up call:
// setup runs before each measurement, uncounted, and leaves the state
// window starts from. So a window that happens once in a state's life
// (the first overlap of two executions) is measured afresh each time,
// and two windows measured this way compare like for like.
func AllocsInWindow(logf func(format string, args ...any), setup, window func()) float64 {
	return leastOfThree(logf, func() float64 { return mallocs(1, setup, window) })
}

// leastOfThree takes up to three measurements on one processor, stopping
// at one of 0, and returns the least; when they differ each is passed to
// logf.
func leastOfThree(logf func(format string, args ...any), measure func() float64) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	each := make([]float64, 0, 3)
	for len(each) < cap(each) {
		m := measure()
		if each = append(each, m); m == 0 {
			break
		}
	}
	if slices.Min(each) != slices.Max(each) {
		logf("allocations differ between measurements %v; the least counts", each)
	}
	return slices.Min(each)
}

// mallocs is one measurement: a collection and a pause, the collector
// off, setup uncounted, then the mean count of n calls of f.
func mallocs(n int, setup, f func()) float64 {
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	setup()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}
