package qbism

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"qbism/internal/experiments"
	"qbism/internal/faultsim"
	"qbism/internal/lfm"
	"qbism/internal/medserver"
	"qbism/internal/region"
	"qbism/internal/sdb"
	"qbism/internal/transport"
	"qbism/internal/volume"
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

// TestRunQueriesSerialFallback checks the workers<=1 and WithWorkers
// plumbing paths.
func TestRunQueriesSerialFallback(t *testing.T) {
	sys, err := New(chaosBaseConfig(), WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	if sys.workers != 3 {
		t.Fatalf("WithWorkers(3) left the client's pool at %d", sys.workers)
	}
	pool := chaosSpecPool(sys)[:6]
	// workers=0 defers to WithWorkers (3); workers=1 forces serial.
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
// n-join of Table 4) on both band rows the server stores: same result
// region, same total page count.
func TestTable4ParallelMatchesSerial(t *testing.T) {
	sys, err := New(chaosBaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	pets := sys.PETStudyIDs()
	bands := sys.BandRegions[pets[0]]
	b := bands[len(bands)/2]
	for _, enc := range []string{EncHilbertNaive, medserver.EncK3Tree} {
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
	sys, err := New(chaosBaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := experiments.StoreTable4Rows(sys.Server); err != nil {
		t.Fatal(err)
	}
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

// TestConsistentBandRegionBadRow: with checksums on, a PET study's band
// field rotted at rest fails the population query with the typed
// checksum error, naming that study (the first PET on one band, the last
// on another), under either label: both rows of a band point at its one
// field, so no intact copy is left to answer from. The band next to it
// still answers.
func TestConsistentBandRegionBadRow(t *testing.T) {
	cfg := chaosBaseConfig()
	cfg.NumPET = 4
	srv := bareServer(t, cfg)
	pets := srv.PETStudyIDs()
	bands := srv.BandRegions[pets[0]]
	field := func(study int, b volume.BandSpec, enc string) lfm.Handle {
		return longField(t, srv,
			`select ib.region from intensityBand ib where ib.studyId = ? and ib.lo = ? and ib.hi = ? and ib.encoding = ?`,
			sdb.Int(int64(study)), sdb.Int(int64(b.Lo)), sdb.Int(int64(b.Hi)), sdb.Str(enc)).L
	}
	for i, bad := range []int{pets[0], pets[len(pets)-1]} {
		b := bands[i]
		h := field(bad, b, medserver.EncK3Tree)
		if synonym := field(bad, b, EncHilbertNaive); synonym != h {
			t.Fatalf("band %d-%d, study %d: h-naive row on field %d, k3-tree row on %d", b.Lo, b.Hi, bad, synonym, h)
		}
		if err := srv.LFM.Corrupt(h, 3, 0x40); err != nil {
			t.Fatal(err)
		}
		for _, enc := range []string{EncHilbertNaive, medserver.EncK3Tree} {
			_, err := srv.ConsistentBandRegion(pets, int(b.Lo), int(b.Hi), enc, 1)
			if !errors.Is(err, lfm.ErrChecksum) || !strings.Contains(err.Error(), fmt.Sprintf("study %d band", bad)) {
				t.Errorf("band %d-%d %s, study %d's field rotted: %v, want a checksum error naming the study", b.Lo, b.Hi, enc, bad, err)
			}
		}
	}
	b := bands[2]
	var regions []*region.Region
	for _, id := range pets {
		regions = append(regions, srv.BandRegions[id][2].Region)
	}
	want, err := region.IntersectN(regions...)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := srv.ConsistentBandRegion(pets, int(b.Lo), int(b.Hi), medserver.EncK3Tree, 1); err != nil || !got.Equal(want) {
		t.Errorf("band %d-%d, intact: %v, %v; want %v", b.Lo, b.Hi, got, err, want)
	}
}

// TestConsistentBandRegionSameLabelRules: the population query resolves
// its encoding label as a band spec does, on a single server (which
// reads the rows directly) and on a cluster (which sends band specs).
// Empty, h-naive and k3-tree give the in-memory intersection on both,
// and octant and h-run-naive are refused on both — on the single server
// even after the experiments stored those rows beside its own.
func TestConsistentBandRegionSameLabelRules(t *testing.T) {
	sys, err := New(chaosBaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := experiments.StoreTable4Rows(sys.Server); err != nil {
		t.Fatal(err)
	}
	cs, err := NewClusterSystem(clusterChaosConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	pets := sys.PETStudyIDs()
	bands := sys.BandRegions[pets[0]]
	lo, hi := int(bands[len(bands)/2].Lo), int(bands[len(bands)/2].Hi)
	var operands []*region.Region
	for _, id := range pets {
		operands = append(operands, sys.BandRegions[id][len(bands)/2].Region)
	}
	want, err := region.IntersectN(operands...)
	if err != nil {
		t.Fatal(err)
	}
	for _, enc := range []string{"", EncHilbertNaive, medserver.EncK3Tree} {
		single, err := sys.ConsistentBandRegion(pets, lo, hi, enc, 1)
		if err != nil {
			t.Fatalf("%q single: %v", enc, err)
		}
		clustered, partial, err := cs.ConsistentBandRegion(pets, lo, hi, enc, 1)
		if err != nil || partial != nil {
			t.Fatalf("%q cluster: %v (partial %v)", enc, err, partial)
		}
		if !single.Equal(want) || !clustered.Equal(want) {
			t.Errorf("%q: single %d vox, cluster %d vox, in memory %d",
				enc, single.NumVoxels(), clustered.NumVoxels(), want.NumVoxels())
		}
	}
	const wantErr = "is not stored"
	for _, enc := range []string{experiments.EncOctant, experiments.EncHRunNaive} {
		if _, err := sys.ConsistentBandRegion(pets, lo, hi, enc, 1); err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("single %s: error %v, want %q", enc, err, wantErr)
		}
		if _, _, err := cs.ConsistentBandRegion(pets, lo, hi, enc, 1); err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("cluster %s: error %v, want %q", enc, err, wantErr)
		}
	}
}

// TestPaperScaleFoldMatchesIntersectN is the population fold's
// differential test on the repo benchmark's corpus: at Bits 7, for every
// band of the five PET studies, the fold over the stored k³-trees —
// under either label — equals region.IntersectN of the band REGIONs the
// loader kept. Here the runs so far thin out row by row, so the walk
// skips subtrees at every level, moving the cursors of the levels below
// past each; one cursor left behind would read another subtree's groups,
// and some band's answer would differ.
func TestPaperScaleFoldMatchesIntersectN(t *testing.T) {
	srv := bareServer(t, Config{Bits: 7, OnlyStudies: []int{1, 2, 3, 4, 5}})
	pets := srv.PETStudyIDs()
	if len(pets) != 5 {
		t.Fatalf("PET studies %v, want the corpus's five", pets)
	}
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
			got, err := srv.ConsistentBandRegion(pets, int(b.Lo), int(b.Hi), enc, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Errorf("band %d-%d %s: the fold gives %d runs, %d voxels; IntersectN %d runs, %d voxels",
					b.Lo, b.Hi, enc, got.NumRuns(), got.NumVoxels(), want.NumRuns(), want.NumVoxels())
			}
		}
	}
}

// TestConsistentBandRegionAllocBudget pins what the population query
// allocates, and checks its answer the way the repo benchmark's verify
// pass does: for every band, equal to IntersectN of the band REGIONs the
// loader kept in memory. Both labels read the same k³-tree fields, so
// one ceiling serves both: the measured count, the most any band takes.
// That is the read buffer, the fold's runs and its words — the two
// slabs reserve makes on the first row, each for both halves of the
// fold's block pieces — and the answer's run list and Region; an empty
// answer has no run list. The field list of five studies is on the
// stack, the fold's level table is an array of its own, and its walk
// needs no rank directory. While each band was stored twice a call took
// 6 on the h-naive rows and 12 on the k³ rows, whose probe grew a level
// table and rank directories and whose steps counted their runs before
// building them. Before the fold read rows in their stored form, a call
// took 9 on h-naive rows and 19 on k³ at one worker, 13 and 23 at two: a
// buffer of every field, a run arena, an operand list, the pool's
// closures and goroutines, and a decode per row. The server runs no
// pool, so the workers argument changes nothing.
func TestConsistentBandRegionAllocBudget(t *testing.T) {
	const ceiling = 5
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
				got, err := srv.ConsistentBandRegion(pets, int(b.Lo), int(b.Hi), enc, 2)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("Bits %d band %d-%d %s: %v, in-memory intersection %v", bits, b.Lo, b.Hi, enc, got, want)
				}
				allocs := testing.AllocsPerRun(10, func() {
					if _, err := srv.ConsistentBandRegion(pets, int(b.Lo), int(b.Hi), enc, 2); err != nil {
						t.Fatal(err)
					}
				})
				if allocs > ceiling {
					t.Errorf("Bits %d band %d-%d %s: %.0f allocations, ceiling %d — is a row decoded, or a run list regrown, on its own again?",
						bits, b.Lo, b.Hi, enc, allocs, ceiling)
				}
			}
		}
	}
}
