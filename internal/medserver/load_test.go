package medserver

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"qbism/internal/lfm"
	"qbism/internal/synth"
	"qbism/internal/warp"
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

// TestRunOrderedCommitFailureUnwinds fails a commit part-way, as a
// device that runs out of space at some study's commit would: each job
// stores one page on a device of three, so job 3's commit gets
// lfm.ErrNoSpace. At 1 and 4 workers the error must be the serial
// loop's, returned bare; the commits before it, and none after it, must
// have run; and no worker may outlive the call.
func TestRunOrderedCommitFailureUnwinds(t *testing.T) {
	workersAlive := func() int {
		buf := make([]byte, 1<<20)
		return strings.Count(string(buf[:runtime.Stack(buf, true)]), "medserver.runOrdered.func")
	}
	for _, workers := range []int{1, 4} {
		mgr, err := lfm.New(3*lfm.DefaultPageSize, lfm.DefaultPageSize)
		if err != nil {
			t.Fatal(err)
		}
		var prepared atomic.Int32
		jobs := make([]loadJob, 10)
		for i := range jobs {
			jobs[i] = func() (func() error, error) {
				prepared.Add(1)
				page := bytes.Repeat([]byte{byte(i)}, lfm.DefaultPageSize)
				return func() error { _, err := mgr.Allocate(page); return err }, nil
			}
		}
		if err := runOrdered(workers, jobs); err != lfm.ErrNoSpace {
			t.Errorf("workers=%d: got %v, want the serial loop's bare %v", workers, err, lfm.ErrNoSpace)
		}
		if n := mgr.NumFields(); n != 3 {
			t.Errorf("workers=%d: %d commits stored, want jobs 0-2's", workers, n)
		}
		if n := prepared.Load(); n < 4 || int(n) > 3+workers {
			t.Errorf("workers=%d: %d jobs prepared, want job 3 and at most %d past it", workers, n, workers-1)
		}
		// wg.Wait has returned, but a goroutine past its deferred Done
		// may not have left the scheduler's books yet.
		deadline := time.Now().Add(5 * time.Second)
		for workersAlive() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: %d workers outlive runOrdered", workers, workersAlive())
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestWarpStudyEqualsFullSampling holds the load's footprint-only
// synthesis to the fully sampled study it stands in for: at Bits 6, for
// a PET, an MRI and a study displaced far enough that the warp's image
// of the atlas overhangs the grid, warpStudy must produce the bytes and
// the warp that Generate followed by WarpToAtlas does. It also checks
// that the load really samples only the footprint — every other voxel
// is 0 — and that an MRI footprint is under 30 % of its grid, so a
// return to full sampling fails here and not only in the benchmark.
func TestWarpStudyEqualsFullSampling(t *testing.T) {
	const side = 64
	for _, c := range []struct {
		name string
		p    synth.Params
	}{
		{"pet", synth.Params{StudyID: 1, PatientID: 1, Modality: synth.PET, Seed: 1993, AtlasSide: side}},
		{"mri", synth.Params{StudyID: 2, PatientID: 2, Modality: synth.MRI, Seed: 1993 + 7919, AtlasSide: side}},
		{"mri clipped", synth.Params{StudyID: 3, PatientID: 3, Modality: synth.MRI, Seed: 42, AtlasSide: side, Misalignment: 6}},
	} {
		t.Run(c.name, func(t *testing.T) {
			full, err := synth.Generate(c.p)
			if err != nil {
				t.Fatal(err)
			}
			want, wantWarp, err := full.WarpToAtlas(side)
			if err != nil {
				t.Fatal(err)
			}
			raw, got, gotWarp, err := warpStudy(c.p, side)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) || gotWarp != wantWarp {
				t.Fatal("footprint-only load differs from the fully sampled study")
			}
			if raw.Date != full.Date || raw.Grid != full.Grid || raw.TrueWarp != full.TrueWarp {
				t.Fatalf("geometry differs: %s %+v %v, fully sampled %s %+v %v",
					raw.Date, raw.Grid, raw.TrueWarp, full.Date, full.Grid, full.TrueWarp)
			}

			mask, err := warp.Footprint(raw.Grid, gotWarp, side)
			if err != nil {
				t.Fatal(err)
			}
			n := raw.Grid.NumVoxels()
			marked, unsampled := 0, 0
			for i := 0; i < n; i++ {
				switch {
				case mask.Has(i):
					marked++
					if raw.Data[i] != full.Data[i] {
						t.Fatalf("voxel %d: footprint sample %d, fully sampled %d", i, raw.Data[i], full.Data[i])
					}
				case raw.Data[i] != 0:
					t.Fatalf("voxel %d outside the footprint was sampled (%d)", i, raw.Data[i])
				case full.Data[i] != 0:
					unsampled++
				}
			}
			if unsampled == 0 {
				t.Error("every voxel the full study holds lies in the footprint: the test shows nothing")
			}
			frac := float64(marked) / float64(n)
			if c.p.Modality == synth.MRI && frac > 0.30 {
				t.Errorf("MRI footprint is %.1f %% of its grid, want at most 30 %%", 100*frac)
			}
			if c.p.Misalignment != 0 && !overhangs(raw.Grid, gotWarp, side) {
				t.Error("the displaced study's warp does not overhang its grid")
			}
		})
	}
}

// overhangs reports whether some corner of the side^3 atlas maps
// outside grid g under the inverse of atlasFromPatient.
func overhangs(g warp.Grid, atlasFromPatient warp.Affine, side int) bool {
	inv, err := atlasFromPatient.Inverse()
	if err != nil {
		return false
	}
	far := float64(side - 1)
	for _, x := range []float64{0, far} {
		for _, y := range []float64{0, far} {
			for _, z := range []float64{0, far} {
				px, py, pz := inv.Apply(x, y, z)
				if px < 0 || py < 0 || pz < 0 || px > float64(g.NX-1) || py > float64(g.NY-1) || pz > float64(g.NZ-1) {
					return true
				}
			}
		}
	}
	return false
}
