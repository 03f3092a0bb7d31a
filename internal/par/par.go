// Package par splits the load pipeline's large index loops across the
// available processors. Every loop it runs writes disjoint outputs from
// shared read-only inputs, so the result never depends on how the range
// was cut or which goroutine ran which piece.
package par

import (
	"runtime"
	"sync"
)

// For calls fn over contiguous pieces [lo, hi) that together cover
// [0, n) exactly once, and returns when every call has. It cuts at most
// runtime.GOMAXPROCS(0) pieces, none smaller than grain, and runs them
// concurrently; with one piece — one processor, or n under two grains —
// fn runs on the calling goroutine.
func For(n, grain int, fn func(lo, hi int)) {
	pieces := runtime.GOMAXPROCS(0)
	if grain > 0 && pieces > n/grain {
		pieces = n / grain
	}
	if pieces <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(pieces - 1)
	for i := 1; i < pieces; i++ {
		lo, hi := n*i/pieces, n*(i+1)/pieces
		go func() {
			defer wg.Done()
			fn(lo, hi)
		}()
	}
	fn(0, n/pieces)
	wg.Wait()
}
