package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForCoversRangeOnce checks the contract the loaders lean on: every
// index is visited exactly once, whatever the processor count, and
// small ranges stay on the caller.
func TestForCoversRangeOnce(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 8} {
		old := runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 7, 64, 1000, 1001} {
			for _, grain := range []int{1, 16, 5000} {
				hits := make([]int32, n)
				var calls atomic.Int32
				For(n, grain, func(lo, hi int) {
					calls.Add(1)
					if hi-lo < grain && hi-lo != n {
						t.Errorf("procs=%d n=%d grain=%d: piece [%d,%d) under the grain", procs, n, grain, lo, hi)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("procs=%d n=%d grain=%d: index %d visited %d times", procs, n, grain, i, h)
					}
				}
				if c := int(calls.Load()); c > procs || (n < 2*grain && c > 1) {
					t.Errorf("procs=%d n=%d grain=%d: %d pieces", procs, n, grain, c)
				}
			}
		}
		runtime.GOMAXPROCS(old)
	}
}

// TestEachVisitsEveryIndexOnce: every index is visited exactly once
// whatever the pool size, and a pool of one runs in order on the caller.
func TestEachVisitsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100} {
		for _, workers := range []int{-1, 0, 1, 2, 3, 200} {
			hits := make([]int32, n)
			var order []int
			Each(n, workers, func(i int) {
				atomic.AddInt32(&hits[i], 1)
				if workers <= 1 || n < 2 {
					order = append(order, i) // the caller's goroutine: no race
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, h)
				}
			}
			for i, got := range order {
				if got != i {
					t.Fatalf("n=%d workers=%d: serial order %v", n, workers, order)
				}
			}
		}
	}
}
