// Package par runs index loops in parallel: For splits the load
// pipeline's large loops across the available processors, Each runs a
// batch of independent items over a bounded pool. Every loop writes
// disjoint outputs by index from shared read-only inputs, so the result
// never depends on how the range was cut or which goroutine ran what.
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

// Each calls fn(0) … fn(n-1) over a pool of at most workers goroutines
// and returns when every call has; with a pool of one (or fewer than two
// items) fn runs in order on the calling goroutine.
func Each(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	work := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range work {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
}
