package qbism

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"qbism/internal/bench"
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
// same bytes, the same image, no errors. The pool spans several answer
// slabs, each image rendered into its slab's pixels. Run under -race
// this is also the concurrency proof for the full query stack (LFM
// mutex, link lock, read-only SQL, workers filling one slab).
func TestRunQueriesMatchesSerial(t *testing.T) {
	sys, err := New(chaosBaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	pool := chaosSpecPool(sys)
	if len(pool) <= 2*cacheCapacity {
		t.Fatalf("a pool of %d specs spans fewer than three answer slabs", len(pool))
	}
	want := make([][]byte, len(pool))
	wantPix := make([][]byte, len(pool))
	for i, spec := range pool {
		res, err := sys.RunQuery(spec)
		if err != nil {
			t.Fatalf("serial %s: %v", spec.Label(), err)
		}
		want[i], wantPix[i] = marshalResult(t, sys.Cfg.Method, res), res.Image.Pix
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
		if !bytes.Equal(item.Res.Image.Pix, wantPix[i]) {
			t.Fatalf("item %d (%s): parallel image differs from serial", i, item.Spec.Label())
		}
	}
}

// TestRunQueriesSerialFallback checks the serial path: a pool size of
// one or fewer runs the batch on the calling goroutine, in order.
func TestRunQueriesSerialFallback(t *testing.T) {
	sys, err := New(chaosBaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	pool := chaosSpecPool(sys)[:6]
	for _, w := range []int{-1, 0, 1} {
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
// fault load: every failure must be typed retryable or a node fault (a
// page flipped on its transfer and its re-read), every success
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
	succeeded, nodeFaults := 0, 0
	for _, item := range items {
		if item.Err != nil {
			if errors.Is(item.Err, transport.ErrNodeFault) {
				nodeFaults++
			} else if !transport.RetryableError(item.Err) {
				t.Fatalf("%s: fatal-classified error escaped: %v", item.Spec.Label(), item.Err)
			}
			continue
		}
		succeeded++
		if got := marshalResult(t, sys.Cfg.Method, item.Res); !bytes.Equal(got, want[item.Spec.Key()]) {
			t.Fatalf("%s: parallel result under faults differs from baseline", item.Spec.Label())
		}
	}
	t.Logf("%d/%d queries succeeded; %d stopped on a node fault", succeeded, len(items), nodeFaults)
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

// TestConsistentBandRegionBadRow: every page verified, a PET study's band
// field rotted at rest fails the population query with the typed
// checksum error, naming that study (the first PET on one band, the last
// on another), under either label: both rows of a band point at its one
// field, so no intact copy is left to answer from. On a single server —
// a cluster of one, whose one shard is then lost — the call fails; on
// two shards, with the field rotted on every node of its shard, that
// shard is lost and the partial's error is the same typed one, while the
// answer is the other shard's. The band next to it still answers.
func TestConsistentBandRegionBadRow(t *testing.T) {
	cfg := chaosBaseConfig()
	cfg.NumPET = 4
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	ccfg := clusterChaosConfig()
	ccfg.Base = cfg
	cs, err := NewClusterSystem(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	pets := sys.PETStudyIDs()
	bands := sys.BandRegions[pets[0]]
	field := func(srv *medserver.Server, study int, b volume.BandSpec, enc string) lfm.Handle {
		return longField(t, srv,
			`select ib.region from intensityBand ib where ib.studyId = ? and ib.lo = ? and ib.hi = ? and ib.encoding = ?`,
			sdb.Int(int64(study)), sdb.Int(int64(b.Lo)), sdb.Int(int64(b.Hi)), sdb.Str(enc)).L
	}
	rot := func(srv *medserver.Server, study int, b volume.BandSpec) {
		h := field(srv, study, b, medserver.EncK3Tree)
		if synonym := field(srv, study, b, EncHilbertNaive); synonym != h {
			t.Fatalf("band %d-%d, study %d: h-naive row on field %d, k3-tree row on %d", b.Lo, b.Hi, study, synonym, h)
		}
		if err := srv.LFM.Corrupt(h, 3, 0x40); err != nil {
			t.Fatal(err)
		}
	}
	namesStudy := func(err error, study int) bool {
		return errors.Is(err, lfm.ErrChecksum) && strings.Contains(err.Error(), fmt.Sprintf("study %d band", study))
	}
	for i, bad := range []int{pets[0], pets[len(pets)-1]} {
		b := bands[i]
		rot(sys.Server, bad, b)
		shard, _ := cs.Route(bad)
		for _, n := range cs.Nodes[shard] {
			rot(n.Server, bad, b)
		}
		var survivors []*region.Region
		for _, id := range pets {
			if sh, _ := cs.Route(id); sh != shard {
				survivors = append(survivors, sys.BandRegions[id][i].Region)
			}
		}
		for _, enc := range []string{EncHilbertNaive, medserver.EncK3Tree} {
			if _, err := sys.ConsistentBandRegion(pets, int(b.Lo), int(b.Hi), enc, 1); !namesStudy(err, bad) {
				t.Errorf("band %d-%d %s, study %d's field rotted: %v, want a checksum error naming the study", b.Lo, b.Hi, enc, bad, err)
			}
			got, partial, err := cs.ConsistentBandRegion(pets, int(b.Lo), int(b.Hi), enc, 1)
			if len(survivors) == 0 {
				if !namesStudy(err, bad) {
					t.Errorf("band %d-%d %s on two shards, every study lost: %v, want a checksum error naming study %d", b.Lo, b.Hi, enc, err, bad)
				}
				continue
			}
			if err != nil || partial == nil || len(partial.Failed) != 1 || partial.Failed[0].Shard != shard || !namesStudy(partial.Failed[0].Err, bad) {
				t.Fatalf("band %d-%d %s on two shards: %v, partial %v; want shard %d lost to a checksum error naming study %d", b.Lo, b.Hi, enc, err, partial, shard, bad)
			}
			if want, err := region.IntersectN(survivors...); err != nil || !got.Equal(want) {
				t.Errorf("band %d-%d %s on two shards: %v, want the survivors' intersection %v (%v)", b.Lo, b.Hi, enc, got, want, err)
			}
		}
	}
	b := bands[2]
	var regions []*region.Region
	for _, id := range pets {
		regions = append(regions, sys.BandRegions[id][2].Region)
	}
	want, err := region.IntersectN(regions...)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sys.ConsistentBandRegion(pets, int(b.Lo), int(b.Hi), medserver.EncK3Tree, 1); err != nil || !got.Equal(want) {
		t.Errorf("band %d-%d, intact: %v, %v; want %v", b.Lo, b.Hi, got, err, want)
	}
	if got, partial, err := cs.ConsistentBandRegion(pets, int(b.Lo), int(b.Hi), medserver.EncK3Tree, 1); err != nil || partial != nil || !got.Equal(want) {
		t.Errorf("band %d-%d on two shards, intact: %v, %v (partial %v); want %v", b.Lo, b.Hi, got, err, partial, want)
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

// paperCorpus is the repo benchmark's paper-scale corpus — five PET and
// three MRI studies at Bits 7 — on a System, loaded once for the tests
// below.
var paperCorpus = sync.OnceValues(func() (*System, error) {
	return New(Config{Bits: 7})
})

// paperBands returns, for every band of the five PET studies, its bounds
// and the in-memory oracle: region.IntersectN of the band REGIONs the
// loader kept.
func paperBands(t *testing.T, sys *System) (pets []int, bands []populationBand) {
	t.Helper()
	pets = sys.PETStudyIDs()
	if len(pets) != 5 {
		t.Fatalf("PET studies %v, want the corpus's five", pets)
	}
	for bi, b := range sys.BandRegions[pets[0]] {
		var regions []*region.Region
		for _, id := range pets {
			regions = append(regions, sys.BandRegions[id][bi].Region)
		}
		want, err := region.IntersectN(regions...)
		if err != nil {
			t.Fatal(err)
		}
		bands = append(bands, populationBand{lo: int(b.Lo), hi: int(b.Hi), want: want})
	}
	return pets, bands
}

// TestPaperScaleFoldMatchesIntersectN is the population fold's
// differential test on the repo benchmark's corpus: at Bits 7, for every
// band of the five PET studies, the answer — the server's fold over the
// stored k³-trees, under either label, sent back over the link — equals
// region.IntersectN of the band REGIONs the loader kept, on a single
// server and on two shards, where each shard folds its own studies and
// the client intersects the two answers. Here the runs so far thin out
// row by row, so the walk skips subtrees at every level, moving the
// cursors of the levels below past each; one cursor left behind would
// read another subtree's groups, and some band's answer would differ.
func TestPaperScaleFoldMatchesIntersectN(t *testing.T) {
	sys, err := paperCorpus()
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewClusterSystem(ClusterConfig{Shards: 2, Replicas: 0, Base: Config{Bits: 7, NumPET: 5, NumMRI: 0}})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	pets, bands := paperBands(t, sys)
	for _, b := range bands {
		for _, enc := range []string{EncHilbertNaive, medserver.EncK3Tree} {
			got, err := sys.ConsistentBandRegion(pets, b.lo, b.hi, enc, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(b.want) {
				t.Errorf("band %d-%d %s: the fold gives %d runs, %d voxels; IntersectN %d runs, %d voxels",
					b.lo, b.hi, enc, got.NumRuns(), got.NumVoxels(), b.want.NumRuns(), b.want.NumVoxels())
			}
			got, partial, err := cs.ConsistentBandRegion(pets, b.lo, b.hi, enc, 2)
			if err != nil || partial != nil {
				t.Fatalf("band %d-%d %s on two shards: %v (partial %v)", b.lo, b.hi, enc, err, partial)
			}
			if !got.Equal(b.want) {
				t.Errorf("band %d-%d %s on two shards: %d runs, %d voxels; IntersectN %d runs, %d voxels",
					b.lo, b.hi, enc, got.NumRuns(), got.NumVoxels(), b.want.NumRuns(), b.want.NumVoxels())
			}
		}
	}
}

// TestConsistentBandRegionAllocBudget pins what the population query
// allocates end to end on a single server — the client, the simulated
// link and the server — at paper scale, and checks its answer the way
// the repo benchmark's verify pass does: for every band, equal to
// IntersectN of the band REGIONs the loader kept in memory. Both labels
// read the same k³-tree fields. The budget is a mean over the eight bands,
// as the benchmark's sweeps use them uniformly: 2.625 a call, as measured.
// A call takes the client's one object (the answer's Region and its
// request's room), the decoded answer's run list — none for an empty
// band, and five of the eight are empty — and the reply, which the
// simulated link's client keeps, so it never goes back to the server's
// free list. The server allocates nothing else: the fold's run and word
// slabs and the answer's runs come from its free lists and go back once
// the reply is encoded (DESIGN.md §11), and the reply is encoded into the
// read buffer. The field list of five studies and the request's studies
// are on the stack, and so are the answer's Region and the fold. While
// the fold made its two slabs per call, a call took 5 on a non-empty band
// and 4 on an empty one, a mean of 4.375, under a ceiling of 5.0; while
// the server's fold was called in process, without the link, 4.62.
func TestConsistentBandRegionAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates, a few objects more or less per call from run to run")
	}
	const budget = 2.625
	sys, err := paperCorpus()
	if err != nil {
		t.Fatal(err)
	}
	pets, bands := paperBands(t, sys)
	for _, enc := range []string{EncHilbertNaive, medserver.EncK3Tree} {
		var total float64
		for _, b := range bands {
			got, err := sys.ConsistentBandRegion(pets, b.lo, b.hi, enc, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(b.want) {
				t.Fatalf("band %d-%d %s: %v, in-memory intersection %v", b.lo, b.hi, enc, got, b.want)
			}
			allocs := bench.AllocsPerCall(t.Logf, 10, func() {
				if _, err := sys.ConsistentBandRegion(pets, b.lo, b.hi, enc, 2); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("band %d-%d %s: %.3f allocations", b.lo, b.hi, enc, allocs)
			total += allocs
		}
		if mean := total / float64(len(bands)); mean > budget {
			t.Errorf("%s: %.3f allocations a call over the %d bands, budget %.3f — is the answer decoded, or a reply framed, in a buffer of its own again?",
				enc, mean, len(bands), budget)
		}
	}
}

// TestPaperSweepAllocBudget pins a population_batch sweep, the repo
// benchmark's, end to end at paper scale: a small structure ∩ band over
// all eight studies, one RunQueries of eight specs on two workers, then
// ConsistentBandRegion over the five PET studies, every band in turn.
// The budget is the mean a sweep, as measured: the batch's items, the
// pool's three objects, one answer slab and one pixel slab, and the eight
// replies the simulated link keeps for the results — 14 — and the
// population call's 2.625 (TestConsistentBandRegionAllocBudget). While
// each answer and each image's pixels were allocated on their own, the
// batch made 28, and a sweep 30.625.
func TestPaperSweepAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates, a few objects more or less per call from run to run")
	}
	if testing.Short() {
		t.Skip("loads a paper-scale server")
	}
	const budget = 16.625
	sys, err := paperCorpus()
	if err != nil {
		t.Fatal(err)
	}
	pets, bands := paperBands(t, sys)
	sweeps := make([][]QuerySpec, len(bands))
	for i, b := range bands {
		for _, st := range sys.Studies {
			sweeps[i] = append(sweeps[i], QuerySpec{StudyID: st.StudyID, Atlas: "Talairach", Structure: "putamen",
				HasBand: true, BandLo: b.lo, BandHi: b.hi})
		}
		if len(sweeps[i]) != cacheCapacity {
			t.Fatalf("a sweep of %d specs, want the corpus's %d studies", len(sweeps[i]), cacheCapacity)
		}
	}
	if err := sys.Server.ReserveExecutions(2); err != nil {
		t.Fatal(err)
	}
	i := 0
	sweep := func() {
		b := bands[i%len(bands)]
		for _, item := range sys.RunQueries(sweeps[i%len(bands)], 2) {
			if item.Err != nil {
				t.Fatal(item.Err)
			}
		}
		if _, err := sys.ConsistentBandRegion(pets, b.lo, b.hi, EncHilbertNaive, 2); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range len(bands) {
		sweep()
	}
	got := bench.AllocsPerCall(t.Logf, 4*len(bands), sweep)
	t.Logf("%.3f allocs per paper-scale sweep over %d bands", got, len(bands))
	if got > budget {
		t.Errorf("%.3f allocs per sweep, budget %.3f — does the batch allocate each answer, or each image's pixels, on its own again?", got, budget)
	}
}
