package qbism

import (
	"bytes"
	"math"
	"sync/atomic"
	"testing"

	"qbism/internal/experiments"
	"qbism/internal/faultsim"
	"qbism/internal/medserver"
	"qbism/internal/region"
	"qbism/internal/transport"
)

// TestRunQueriesMatchesSerial fans the whole chaos spec pool across 4
// workers and checks every result against a serial run: same order,
// same bytes, no errors. Run under -race this is also the concurrency
// proof for the full query stack (LFM mutex, link lock, read-only SQL).
func TestRunQueriesMatchesSerial(t *testing.T) {
	sys, err := New(chaosBaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	pool := chaosSpecPool(sys)
	want := make([][]byte, len(pool))
	for i, spec := range pool {
		res, err := sys.RunQuery(spec)
		if err != nil {
			t.Fatalf("serial %s: %v", spec.Label(), err)
		}
		want[i] = marshalResult(t, sys.Cfg.Method, res)
	}

	items := sys.RunQueries(pool, 4)
	if len(items) != len(pool) {
		t.Fatalf("got %d items for %d specs", len(items), len(pool))
	}
	for i, item := range items {
		if item.Spec.Key() != pool[i].Key() {
			t.Fatalf("item %d out of order: got %s, want %s", i, item.Spec.Label(), pool[i].Label())
		}
		if item.Err != nil {
			t.Fatalf("item %d (%s): %v", i, item.Spec.Label(), item.Err)
		}
		if got := marshalResult(t, sys.Cfg.Method, item.Res); !bytes.Equal(got, want[i]) {
			t.Fatalf("item %d (%s): parallel result differs from serial", i, item.Spec.Label())
		}
	}
}

// TestRunQueriesSerialFallback checks the workers<=1 and Config.Workers
// plumbing paths.
func TestRunQueriesSerialFallback(t *testing.T) {
	cfg := chaosBaseConfig()
	cfg.Workers = 3
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool := chaosSpecPool(sys)[:6]
	// workers=0 defers to Config.Workers (3); workers=1 forces serial.
	for _, w := range []int{0, 1} {
		items := sys.RunQueries(pool, w)
		for i, item := range items {
			if item.Err != nil {
				t.Fatalf("workers=%d item %d: %v", w, i, item.Err)
			}
			if item.Spec.Key() != pool[i].Key() {
				t.Fatalf("workers=%d item %d out of order", w, i)
			}
		}
	}
	if items := sys.RunQueries(nil, 4); len(items) != 0 {
		t.Errorf("empty batch returned %d items", len(items))
	}
}

// TestRunQueriesUnderFaults runs a parallel batch against an injected
// fault load: every failure must be typed retryable, every success
// byte-identical to the fault-free baseline. Fault-to-query assignment
// is timing-dependent under concurrency, so this asserts outcome
// integrity, not a specific schedule; the deterministic-schedule and
// 95%-success guarantees are covered serially in chaos_test.go.
func TestRunQueriesUnderFaults(t *testing.T) {
	clean, err := New(chaosBaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	pool := chaosSpecPool(clean)
	want := make(map[string][]byte)
	for _, spec := range pool {
		res, err := clean.RunQuery(spec)
		if err != nil {
			t.Fatal(err)
		}
		want[spec.Key()] = marshalResult(t, clean.Cfg.Method, res)
	}

	cfg := chaosBaseConfig()
	cfg.CachePages = 32
	cfg.ReadGapPages = 4
	cfg.DeviceFaults = &faultsim.Policy{Seed: 77, ReadErrProb: 0.01, PageCorruptProb: 0.01}
	sys, err := New(cfg, WithRetry(transport.DefaultRetryPolicy()))
	if err != nil {
		t.Fatal(err)
	}

	var specs []QuerySpec
	for i := 0; i < 4; i++ {
		specs = append(specs, pool...)
	}
	items := sys.RunQueries(specs, 4)
	succeeded := 0
	for _, item := range items {
		if item.Err != nil {
			if !transport.RetryableError(item.Err) {
				t.Fatalf("%s: fatal-classified error escaped: %v", item.Spec.Label(), item.Err)
			}
			continue
		}
		succeeded++
		if got := marshalResult(t, sys.Cfg.Method, item.Res); !bytes.Equal(got, want[item.Spec.Key()]) {
			t.Fatalf("%s: parallel result under faults differs from baseline", item.Spec.Label())
		}
	}
	if rate := float64(succeeded) / float64(len(items)); rate < 0.9 {
		t.Errorf("success rate %.3f under light faults (%d/%d)", rate, succeeded, len(items))
	}
}

// TestTable4ParallelMatchesSerial checks the parallel multi-study plan
// (ConsistentBandRegion) returns exactly the serial SQL plan's row (the
// n-join of Table 4): same result region, same total page count.
func TestTable4ParallelMatchesSerial(t *testing.T) {
	cfg := chaosBaseConfig()
	cfg.ExtraBandEncodings = true
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pets := sys.PETStudyIDs()
	bands := sys.BandRegions[pets[0]]
	b := bands[len(bands)/2]
	for _, enc := range []string{EncHilbertNaive, EncZNaive, EncOctant} {
		rows, err := experiments.Table4(sys.Server, int(b.Lo), int(b.Hi), enc)
		if err != nil {
			t.Fatalf("%s serial: %v", enc, err)
		}
		serial := rows[0]
		// The parallel fetches bill no call, so the device meter prices
		// them; nothing else runs on this system.
		pages0 := sys.LFM.Stats().PageReads
		par, err := sys.ConsistentBandRegion(pets, int(b.Lo), int(b.Hi), enc, 4)
		if err != nil {
			t.Fatalf("%s parallel: %v", enc, err)
		}
		pages := sys.LFM.Stats().PageReads - pages0
		if par.NumRuns() != serial.ResultRuns || par.NumVoxels() != serial.ResultVox {
			t.Errorf("%s: parallel result %d runs/%d vox != serial %d/%d",
				enc, par.NumRuns(), par.NumVoxels(), serial.ResultRuns, serial.ResultVox)
		}
		if pages != serial.LFMPages {
			t.Errorf("%s: parallel pages %d != serial %d", enc, pages, serial.LFMPages)
		}
	}
}

// TestTable4PagesExactUnderConcurrency: Table 4's LFM-IO is its
// statement's own bill, so a query batch running on the same unbuffered
// system at the same time adds nothing to it — every row matches a
// quiet run's.
func TestTable4PagesExactUnderConcurrency(t *testing.T) {
	cfg := chaosBaseConfig()
	cfg.ExtraBandEncodings = true
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	bands := sys.BandRegions[sys.PETStudyIDs()[0]]
	b := bands[len(bands)/2]
	quiet, err := experiments.Table4(sys.Server, int(b.Lo), int(b.Hi))
	if err != nil {
		t.Fatal(err)
	}

	pool := chaosSpecPool(sys)
	var batches atomic.Int64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, item := range sys.RunQueries(pool, 4) {
				if item.Err != nil {
					t.Errorf("batch %s: %v", item.Spec.Label(), item.Err)
					return
				}
			}
			batches.Add(1)
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()
	// Keep Table 4 running until whole batches have gone by beside it.
	for run := 0; run < 5 || batches.Load() < 2; run++ {
		rows, err := experiments.Table4(sys.Server, int(b.Lo), int(b.Hi))
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range rows {
			if row.LFMPages != quiet[i].LFMPages || row.ResultRuns != quiet[i].ResultRuns || row.ResultVox != quiet[i].ResultVox {
				t.Fatalf("run %d %s: %d pages, %d runs, %d voxels beside a batch; quiet run %d, %d, %d",
					run, row.Encoding, row.LFMPages, row.ResultRuns, row.ResultVox,
					quiet[i].LFMPages, quiet[i].ResultRuns, quiet[i].ResultVox)
			}
		}
	}
}

// TestConsistentBandRegionErrors covers the unhappy paths.
func TestConsistentBandRegionErrors(t *testing.T) {
	sys, err := New(chaosBaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ConsistentBandRegion(nil, 0, 31, EncHilbertNaive, 2); err == nil {
		t.Error("empty study list accepted")
	}
	// A band that was never stored must fail, not silently intersect.
	if _, err := sys.ConsistentBandRegion(sys.PETStudyIDs(), 1, 2, EncHilbertNaive, 2); err == nil {
		t.Error("missing stored band accepted")
	}
}

// TestConsistentBandRegionAllocBudget pins what the population query
// allocates, and checks its answer the way the repo benchmark's verify
// pass does: for every band, equal to IntersectN of the band REGIONs the
// loader kept in memory. The ceilings are the measured counts, the most
// any band takes: the field list, the pool's two closures, the read
// buffer, the run arena, the operand list and IntersectN's three (one
// for an empty answer); a pool of two adds its state and the closure of
// the goroutine it starts, twice; a k³-tree row adds its probe's level
// table, parsed once to size the arena and once to decode. Before, one
// call took 16–93, growing with the answer: a buffer, a run list and a
// Region per study, and every step of the fold's list grown run by run.
func TestConsistentBandRegionAllocBudget(t *testing.T) {
	ceiling := map[string][3]float64{ // by encoding, then workers
		EncHilbertNaive:     {1: 9, 2: 13},
		medserver.EncK3Tree: {1: 19, 2: 23},
	}
	for _, bits := range []int{5, 6} {
		srv := bareServer(t, Config{Bits: bits, NumPET: 5, NumMRI: 1, Seed: 7, SmallStudies: true})
		pets := srv.PETStudyIDs()
		for bi, b := range srv.BandRegions[pets[0]] {
			var regions []*region.Region
			for _, id := range pets {
				regions = append(regions, srv.BandRegions[id][bi].Region)
			}
			want, err := region.IntersectN(regions...)
			if err != nil {
				t.Fatal(err)
			}
			for _, enc := range []string{EncHilbertNaive, medserver.EncK3Tree} {
				for _, workers := range []int{1, 2} {
					got, err := srv.ConsistentBandRegion(pets, int(b.Lo), int(b.Hi), enc, workers)
					if err != nil {
						t.Fatal(err)
					}
					if !got.Equal(want) {
						t.Fatalf("Bits %d band %d-%d %s: %v, in-memory intersection %v", bits, b.Lo, b.Hi, enc, got, want)
					}
					// The pool's goroutine and its WaitGroup wait allocate
					// or not by when the GC runs, so a pooled row keeps
					// the least of three measurements; a real regression
					// shows on every one.
					runs := 1
					if workers > 1 {
						runs = 3
					}
					allocs := math.Inf(1)
					for range runs {
						allocs = min(allocs, testing.AllocsPerRun(10, func() {
							if _, err := srv.ConsistentBandRegion(pets, int(b.Lo), int(b.Hi), enc, workers); err != nil {
								t.Fatal(err)
							}
						}))
					}
					if limit := ceiling[enc][workers]; allocs > limit {
						t.Errorf("Bits %d band %d-%d %s, %d workers: %.0f allocations, ceiling %.0f — is a study's field, run list or Region allocated on its own again?",
							bits, b.Lo, b.Hi, enc, workers, allocs, limit)
					}
				}
			}
		}
	}
}
