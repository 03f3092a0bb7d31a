// Package par runs index loops in parallel: For splits the load
// pipeline's large loops across the available processors, Each runs a
// batch of independent items over a bounded pool. Every loop writes
// disjoint outputs by index from shared read-only inputs, so the result
// never depends on how the range was cut or which goroutine ran what.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
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

// Each calls fn(0) … fn(n-1) over a pool of at most workers goroutines,
// the caller's one of them, and returns when every call has; with a pool
// of one (or fewer than two items) fn runs in order on the calling
// goroutine. Each member takes the next index off a shared counter, so a
// pool costs its state and one closure per goroutine it starts.
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
	p := &pool{n: n, fn: fn}
	p.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer p.wg.Done()
			p.run()
		}()
	}
	p.run()
	p.wg.Wait()
}

// pool is one Each call's shared state.
type pool struct {
	next atomic.Int64 // the next index to hand out
	wg   sync.WaitGroup
	n    int
	fn   func(i int)
}

// run calls fn on indices off the counter until they run out.
func (p *pool) run() {
	for i := int(p.next.Add(1)) - 1; i < p.n; i = int(p.next.Add(1)) - 1 {
		p.fn(i)
	}
}
