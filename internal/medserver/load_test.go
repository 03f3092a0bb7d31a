package medserver

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestRunOrdered checks the scheduler itself: commits happen on the
// caller in job order, no more than workers results are ever pending,
// and the first failure in job order wins even when a later job failed
// earlier in time.
func TestRunOrdered(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		var committed []int
		var pending, peak atomic.Int32 // prepared or preparing, not yet committed
		jobs := make([]loadJob, 10)
		for i := range jobs {
			jobs[i] = func() (func() error, error) {
				n := pending.Add(1)
				for old := peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
				}
				return func() error {
					pending.Add(-1)
					committed = append(committed, i)
					return nil
				}, nil
			}
		}
		if err := runOrdered(workers, jobs); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(committed) != "[0 1 2 3 4 5 6 7 8 9]" {
			t.Errorf("workers=%d: commit order %v", workers, committed)
		}
		if int(peak.Load()) > workers {
			t.Errorf("workers=%d: %d jobs in flight at once", workers, peak.Load())
		}

		errPrepare, errCommit := errors.New("prepare 4"), errors.New("commit 2")
		late := make(chan struct{})
		for i := range jobs {
			jobs[i] = func() (func() error, error) {
				switch i {
				case 2:
					<-late // fails after job 4 already has
					return func() error { return errCommit }, nil
				case 4:
					defer close(late)
					return nil, errPrepare
				}
				return func() error { return nil }, nil
			}
		}
		if workers < 3 {
			close(late) // job 4 is never reached: job 2 must commit first
			jobs[4] = func() (func() error, error) { return nil, errPrepare }
		}
		if err := runOrdered(workers, jobs); err != errCommit {
			t.Errorf("workers=%d: got %v, want the first failure in job order (%v)", workers, err, errCommit)
		}
	}
}
