// Command perfbench measures the read path and the SQL planner end to
// end — run pruning, gap coalescing, the LFM page cache, the parallel
// multi-study executor, predicate pushdown A/B, and the observability
// layer's overhead, plus the sharded cluster's resilience (failover
// and partial-result behavior under dead nodes) and the queryable
// k³-tree representation (encoded size vs the run codecs, per-call
// probe and intersection latency vs decode-then-probe, and the
// auto-vs-runs differential) — and writes a machine-readable summary
// to BENCH_PR7.json through the versioned envelope in internal/bench.
//
// Two clocks appear in the output. Wall-clock nanoseconds depend on the
// host (its CPU count is recorded under "host" so the parallel numbers
// are interpretable: on a single-core container the measured speedup is
// pinned near 1x no matter how good the executor is). The simulated
// numbers come from the repo's 1993 cost model and are deterministic:
// page counts, cache hit rates, and the simulated batch makespan do not
// change from host to host. The planner A/B likewise compares LFM page
// counts, which are exact and host-independent.
//
//	perfbench                     # full run, writes BENCH_PR7.json
//	perfbench -smoke -out /tmp/b.json   # one tiny iteration (CI smoke)
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"qbism"
	"qbism/internal/bench"
	"qbism/internal/faultsim"
)

// prTag labels the artifact this tool currently regenerates.
const prTag = "PR7"

type benchConfig struct {
	Bits          int    `json:"bits"`
	PETs          int    `json:"pet_studies"`
	MRIs          int    `json:"mri_studies"`
	Iters         int    `json:"iters"`
	Workers       int    `json:"workers"`
	CachePages    int    `json:"cache_pages"`
	ModelGapPages uint64 `json:"model_gap_pages"`
	Smoke         bool   `json:"smoke"`
}

type pruningReport struct {
	FullPages       uint64  `json:"full_volume_pages"`
	BoxPages        uint64  `json:"box_pages"`
	StructurePages  uint64  `json:"structure_pages"`
	BoxFactor       float64 `json:"box_pruning_factor"`
	StructureFactor float64 `json:"structure_pruning_factor"`
	FullNsOp        int64   `json:"full_volume_ns_op"`
	BoxNsOp         int64   `json:"box_ns_op"`
	StructureNsOp   int64   `json:"structure_ns_op"`
}

type gapPoint struct {
	Gap   uint64 `json:"gap_pages"`
	Reads uint64 `json:"reads_op"`
	Pages uint64 `json:"pages_op"`
	NsOp  int64  `json:"ns_op"`
}

type cacheReport struct {
	CachePages uint64  `json:"cache_pages"`
	ColdPages  uint64  `json:"cold_pass_pages"`
	WarmPages  uint64  `json:"warm_pass_pages"`
	Hits       uint64  `json:"warm_pass_hits"`
	Misses     uint64  `json:"warm_pass_misses"`
	HitRate    float64 `json:"warm_pass_hit_rate"`
	ColdNsOp   int64   `json:"cold_pass_ns_op"`
	WarmNsOp   int64   `json:"warm_pass_ns_op"`
}

type speedup struct {
	SerialWallNs   int64   `json:"serial_wall_ns"`
	ParallelWallNs int64   `json:"parallel_wall_ns"`
	WallSpeedup    float64 `json:"wall_speedup"`
	SerialSimMs    float64 `json:"serial_sim_ms,omitempty"`
	ParallelSimMs  float64 `json:"parallel_sim_ms,omitempty"`
	SimSpeedup     float64 `json:"sim_speedup,omitempty"`
}

type parallelReport struct {
	Workers int     `json:"workers"`
	Queries int     `json:"batch_queries"`
	Batch   speedup `json:"query_batch"`
	Table4  speedup `json:"table4_intersection"`
}

type plannerReport struct {
	Query            string   `json:"query"`
	PushdownPages    uint64   `json:"pushdown_pages"`
	NoPushdownPages  uint64   `json:"no_pushdown_pages"`
	PagesSavedFactor float64  `json:"pages_saved_factor"`
	PushdownNsOp     int64    `json:"pushdown_ns_op"`
	NoPushdownNsOp   int64    `json:"no_pushdown_ns_op"`
	Identical        bool     `json:"identical_results"`
	Explain          []string `json:"explain"`
}

type obsReport struct {
	Queries        int     `json:"suite_queries"`
	UntracedNsOp   int64   `json:"untraced_ns_op"`
	TracedNsOp     int64   `json:"traced_ns_op"`
	OverheadPct    float64 `json:"tracing_overhead_pct"`
	SpanPages      uint64  `json:"span_tree_pages"`
	StatsPages     uint64  `json:"lfm_stats_pages"`
	SpanPagesExact bool    `json:"span_pages_exact"`
	SpansPerQuery  float64 `json:"spans_per_query"`
}

type clusterReport struct {
	Shards   int `json:"shards"`
	Replicas int `json:"replicas"`
	Queries  int `json:"batch_queries"`
	// Healthy vs one-primary-dead batch makespans on the simulated
	// clock (host-independent), and whether the degraded batch's
	// payloads were byte-identical to the healthy run's.
	CleanSimMs        float64 `json:"clean_sim_ms"`
	DegradedSimMs     float64 `json:"degraded_sim_ms"`
	Failovers         int64   `json:"failovers"`
	DegradedIdentical bool    `json:"degraded_identical_results"`
	// Whole-shard loss: the typed partial names the lost shard and the
	// surviving results still match the healthy run.
	LostShards     []int `json:"lost_shards"`
	LostQueries    int   `json:"lost_queries"`
	PartialBatches int64 `json:"partial_batches"`
	SurvivorsMatch bool  `json:"survivors_identical_results"`
	ShardUnavail   int64 `json:"shard_unavailable_reads"`
}

type report struct {
	Config    benchConfig     `json:"config"`
	Pruning   pruningReport   `json:"pruning"`
	GapSweep  []gapPoint      `json:"gap_sweep"`
	Cache     cacheReport     `json:"cache"`
	Parallel  parallelReport  `json:"parallel"`
	Planner   plannerReport   `json:"planner"`
	Obs       obsReport       `json:"observability"`
	Cluster   clusterReport   `json:"cluster"`
	Queryable queryableReport `json:"queryable"`
}

// queryableReport compares the k³-tree representation against the run
// codecs on the largest synthetic structure REGION: encoded size, the
// per-call cost of answering a point probe from stored bytes (parse +
// O(depth) descent vs decode-to-runs + binary search), the band ∩
// structure intersection both ways, the auto-vs-runs result
// differential, and the planner's per-band representation census.
type queryableReport struct {
	Structure           string  `json:"structure"`
	Voxels              uint64  `json:"voxels"`
	Runs                int     `json:"runs"`
	NaiveBytes          int     `json:"naive_bytes"`
	EliasBytes          int     `json:"elias_bytes"`
	K3Bytes             int     `json:"k3_bytes"`
	K3OverElias         float64 `json:"k3_over_elias_size_ratio"`
	DecodeProbeNsOp     int64   `json:"decode_then_probe_ns_op"`
	K3ProbeNsOp         int64   `json:"k3_probe_ns_op"`
	ProbeSpeedup        float64 `json:"probe_speedup"`
	DecodeIntersectNsOp int64   `json:"decode_intersect_ns_op"`
	K3IntersectNsOp     int64   `json:"k3_intersect_ns_op"`
	IntersectSpeedup    float64 `json:"intersect_speedup"`
	DifferentialOK      bool    `json:"auto_vs_runs_identical"`
}

func main() {
	out := flag.String("out", "BENCH_PR7.json", "write the JSON report here")
	smoke := flag.Bool("smoke", false, "tiny single-iteration run (CI smoke test)")
	bits := flag.Int("bits", 6, "atlas grid bits per axis")
	pets := flag.Int("pets", 5, "number of PET studies")
	mris := flag.Int("mris", 1, "number of MRI studies")
	iters := flag.Int("iters", 20, "timed iterations per measurement")
	workers := flag.Int("workers", 4, "parallel executor pool size")
	cachePages := flag.Int("cachepages", 64, "LFM page-cache capacity for the cache pass")
	flag.Parse()
	if *smoke {
		*bits, *pets, *mris, *iters = 4, 3, 0, 1
	}

	cfg := qbism.Config{
		Bits: *bits, NumPET: *pets, NumMRI: *mris, Seed: 1993,
		SmallStudies: true, ExtraBandEncodings: true, Checksums: true,
	}
	sys, err := qbism.NewSystem(cfg)
	if err != nil {
		fail("load: %v", err)
	}
	defer sys.Close()
	rep := report{
		Config: benchConfig{
			Bits: *bits, PETs: *pets, MRIs: *mris, Iters: *iters, Workers: *workers,
			CachePages: *cachePages, ModelGapPages: sys.Model.CoalesceGapPages(), Smoke: *smoke,
		},
	}

	rep.Pruning = measurePruning(sys, *iters)
	rep.GapSweep = measureGapSweep(sys, *iters)
	rep.Cache = measureCache(cfg, *cachePages, *iters)
	rep.Parallel = measureParallel(sys, *workers)
	rep.Planner = measurePlanner(sys, *iters)
	rep.Obs = measureObs(cfg, *iters)
	rep.Cluster = measureCluster(cfg, *workers)
	rep.Queryable = measureQueryable(sys, cfg, *iters)

	env, err := bench.New(prTag, "perfbench", rep)
	if err != nil {
		fail("%v", err)
	}
	if err := env.WriteFile(*out); err != nil {
		fail("%v", err)
	}

	fmt.Printf("pruning: full=%d pages, box=%d (%.1fx fewer), structure=%d (%.1fx fewer)\n",
		rep.Pruning.FullPages, rep.Pruning.BoxPages, rep.Pruning.BoxFactor,
		rep.Pruning.StructurePages, rep.Pruning.StructureFactor)
	for _, g := range rep.GapSweep {
		fmt.Printf("gap %2d: %d reads, %d pages, %s/op\n",
			g.Gap, g.Reads, g.Pages, time.Duration(g.NsOp))
	}
	fmt.Printf("cache(%d pages): warm pass %d pages (cold %d), hit rate %.2f\n",
		rep.Cache.CachePages, rep.Cache.WarmPages, rep.Cache.ColdPages, rep.Cache.HitRate)
	fmt.Printf("batch x%d: wall %.2fx, simulated %.2fx at %d workers (host has %d CPUs)\n",
		rep.Parallel.Queries, rep.Parallel.Batch.WallSpeedup, rep.Parallel.Batch.SimSpeedup,
		rep.Parallel.Workers, env.Host.NumCPU)
	fmt.Printf("planner: pushdown %d pages vs %d without (%.1fx fewer), identical=%v\n",
		rep.Planner.PushdownPages, rep.Planner.NoPushdownPages,
		rep.Planner.PagesSavedFactor, rep.Planner.Identical)
	fmt.Printf("observability: %s/op untraced vs %s/op traced (%.1f%% overhead), span pages exact=%v\n",
		time.Duration(rep.Obs.UntracedNsOp), time.Duration(rep.Obs.TracedNsOp),
		rep.Obs.OverheadPct, rep.Obs.SpanPagesExact)
	fmt.Printf("cluster %dx(1+%d): %d failovers with a dead primary (identical=%v), shard loss -> %d typed-partial queries (survivors identical=%v)\n",
		rep.Cluster.Shards, rep.Cluster.Replicas, rep.Cluster.Failovers, rep.Cluster.DegradedIdentical,
		rep.Cluster.LostQueries, rep.Cluster.SurvivorsMatch)
	q := rep.Queryable
	fmt.Printf("queryable(%s, %d voxels): k3 %d B vs elias %d B (%.2fx), probe %s vs %s (%.1fx), band∩structure %s vs %s (%.1fx), auto==runs %v\n",
		q.Structure, q.Voxels, q.K3Bytes, q.EliasBytes, q.K3OverElias,
		time.Duration(q.K3ProbeNsOp), time.Duration(q.DecodeProbeNsOp), q.ProbeSpeedup,
		time.Duration(q.K3IntersectNsOp), time.Duration(q.DecodeIntersectNsOp), q.IntersectSpeedup,
		q.DifferentialOK)
	fmt.Printf("wrote %s (schema v%d, %s)\n", *out, env.Schema, prTag)
}

// measureCluster prices the sharded deployment's robustness: the same
// batch runs healthy, then with shard 0's primary dead (every read must
// fail over and stay byte-identical), then with shard 0 entirely dead
// (the batch must degrade to a typed partial naming the shard while the
// survivors stay byte-identical). All makespans are simulated time.
func measureCluster(cfg qbism.Config, workers int) clusterReport {
	cs, err := qbism.NewClusterSystem(qbism.ClusterConfig{
		Shards: 2, Replicas: 1, Base: cfg, Retry: qbism.DefaultRetryPolicy(),
	})
	if err != nil {
		fail("load cluster: %v", err)
	}
	defer cs.Close()
	method := cs.Nodes[0][0].Cfg.Method
	var specs []qbism.QuerySpec
	for _, st := range cs.Studies {
		specs = append(specs,
			qbism.QuerySpec{StudyID: st.StudyID, Atlas: "Talairach", FullStudy: true},
			qbism.QuerySpec{StudyID: st.StudyID, Atlas: "Talairach", Structure: "ntal"})
	}
	r := clusterReport{Shards: 2, Replicas: 1, Queries: len(specs)}

	marshal := func(items []qbism.BatchItem) [][]byte {
		blobs := make([][]byte, len(items))
		for i, item := range items {
			if item.Err != nil {
				continue
			}
			b, err := qbism.MarshalDataRegion(item.Res.Data, method)
			if err != nil {
				fail("marshal %s: %v", item.Spec.Label(), err)
			}
			blobs[i] = b
		}
		return blobs
	}

	clean, partial := cs.RunQueries(specs, workers)
	if partial != nil {
		fail("healthy cluster batch reported a partial: %v", partial)
	}
	for _, item := range clean {
		if item.Err != nil {
			fail("healthy cluster batch: %s: %v", item.Spec.Label(), item.Err)
		}
	}
	want := marshal(clean)
	_, cleanSim := qbism.BatchSim(clean, workers)
	r.CleanSimMs = float64(cleanSim.Microseconds()) / 1e3

	// Phase 2: shard 0's primary goes dark; replicas must carry it.
	cs.Nodes[0][0].Link.SetFaults(faultsim.New(faultsim.Policy{DropProb: 1}))
	degraded, partial := cs.RunQueries(specs, workers)
	if partial != nil {
		fail("degraded batch lost a shard despite a live replica: %v", partial)
	}
	got := marshal(degraded)
	r.DegradedIdentical = true
	for i := range got {
		if degraded[i].Err != nil || !bytes.Equal(got[i], want[i]) {
			r.DegradedIdentical = false
		}
	}
	_, degSim := qbism.BatchSim(degraded, workers)
	r.DegradedSimMs = float64(degSim.Microseconds()) / 1e3
	r.Failovers = cs.Metrics.Counter("cluster_failover_total").Value()

	// Phase 3: the whole shard goes dark; the batch must degrade to a
	// typed partial, never a silent wrong answer.
	cs.Nodes[0][1].Link.SetFaults(faultsim.New(faultsim.Policy{DropProb: 1}))
	lost, partial := cs.RunQueries(specs, workers)
	if partial == nil {
		fail("dead shard produced no PartialResult")
	}
	r.LostShards = partial.LostShards()
	r.LostQueries = partial.LostKeys()
	r.SurvivorsMatch = true
	gotLost := marshal(lost)
	for i := range lost {
		if lost[i].Err != nil {
			continue
		}
		if !bytes.Equal(gotLost[i], want[i]) {
			r.SurvivorsMatch = false
		}
	}
	r.PartialBatches = cs.Metrics.Counter("cluster_partial_total").Value()
	r.ShardUnavail = cs.Metrics.Counter("cluster_shard_unavailable_total").Value()
	return r
}

// timeQuery runs the spec iters times and returns ns/op plus the pages
// read by one execution.
func timeQuery(sys *qbism.System, spec qbism.QuerySpec, iters int) (nsOp int64, pages uint64) {
	res, err := sys.RunQuery(spec) // warm-up, and the page count
	if err != nil {
		fail("%v: %v", spec, err)
	}
	pages = res.Meta.LFMPages
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := sys.RunQuery(spec); err != nil {
			fail("%v: %v", spec, err)
		}
	}
	return time.Since(start).Nanoseconds() / int64(iters), pages
}

func measurePruning(sys *qbism.System, iters int) pruningReport {
	study := sys.Studies[0].StudyID
	hi := uint32(sys.Side()/4 - 1) // a (side/4)^3 corner box
	var r pruningReport
	r.FullNsOp, r.FullPages = timeQuery(sys,
		qbism.QuerySpec{StudyID: study, Atlas: "Talairach", FullStudy: true}, iters)
	box := [6]uint32{0, 0, 0, hi, hi, hi}
	r.BoxNsOp, r.BoxPages = timeQuery(sys,
		qbism.QuerySpec{StudyID: study, Atlas: "Talairach", Box: &box}, iters)
	r.StructureNsOp, r.StructurePages = timeQuery(sys,
		qbism.QuerySpec{StudyID: study, Atlas: "Talairach", Structure: "putamen"}, iters)
	if r.BoxPages > 0 {
		r.BoxFactor = float64(r.FullPages) / float64(r.BoxPages)
	}
	if r.StructurePages > 0 {
		r.StructureFactor = float64(r.FullPages) / float64(r.StructurePages)
	}
	return r
}

// measureGapSweep drives run-pruned extraction over a real anatomical
// REGION at increasing gap thresholds: reads (seeks) fall, pages
// (transferred bytes) rise — the trade CoalesceGapPages prices.
func measureGapSweep(sys *qbism.System, iters int) []gapPoint {
	st, err := sys.Atlas.ByName("ntal")
	if err != nil {
		fail("atlas: %v", err)
	}
	res, err := sys.DB.Exec("select wv.data from warpedVolume wv where wv.studyId = 1")
	if err != nil || len(res.Rows) != 1 {
		fail("volume lookup: %v", err)
	}
	h := res.Rows[0][0].L
	gaps := []uint64{0, 1, 4, sys.Model.CoalesceGapPages(), 64}
	var sweep []gapPoint
	for _, gap := range gaps {
		before := sys.LFM.Stats()
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := qbism.ExtractStoredOpts(sys.LFM, h, st.Region, qbism.ExtractOpts{GapPages: gap}); err != nil {
				fail("extract gap %d: %v", gap, err)
			}
		}
		ns := time.Since(start).Nanoseconds() / int64(iters)
		d := sys.LFM.Stats().Sub(before)
		sweep = append(sweep, gapPoint{
			Gap: gap, Reads: d.Reads / uint64(iters), Pages: d.PageReads / uint64(iters), NsOp: ns,
		})
	}
	return sweep
}

// measureCache builds a cache-enabled twin of the system and runs the
// Table 3 query mix twice: the cold pass fills the cache, the warm pass
// shows the hit rate and the device pages it saves.
func measureCache(cfg qbism.Config, cachePages, iters int) cacheReport {
	cfg.CachePages = cachePages
	sys, err := qbism.NewSystem(cfg)
	if err != nil {
		fail("load cached system: %v", err)
	}
	specs := sys.Table3Queries()
	pass := func() (pages, hits, misses uint64, ns int64) {
		before := sys.LFM.Stats()
		start := time.Now()
		for _, spec := range specs {
			if _, err := sys.RunQuery(spec); err != nil {
				fail("%v: %v", spec, err)
			}
		}
		ns = time.Since(start).Nanoseconds() / int64(len(specs))
		d := sys.LFM.Stats().Sub(before)
		return d.PageReads, d.CacheHits, d.CacheMisses, ns
	}
	var r cacheReport
	r.CachePages = uint64(cachePages)
	r.ColdPages, _, _, r.ColdNsOp = pass()
	r.WarmPages, r.Hits, r.Misses, r.WarmNsOp = pass()
	if r.Hits+r.Misses > 0 {
		r.HitRate = float64(r.Hits) / float64(r.Hits+r.Misses)
	}
	return r
}

// measureParallel runs the same multi-study workloads serially and over
// the worker pool. Wall clock is the host's truth; BatchSim prices the
// identical batch on the cost model's clock, where the overlap the
// executor creates is visible even on a single-core host.
func measureParallel(sys *qbism.System, workers int) parallelReport {
	var specs []qbism.QuerySpec
	for _, id := range sys.PETStudyIDs() {
		specs = append(specs,
			qbism.QuerySpec{StudyID: id, Atlas: "Talairach", FullStudy: true},
			qbism.QuerySpec{StudyID: id, Atlas: "Talairach", Structure: "ntal"},
			qbism.QuerySpec{StudyID: id, Atlas: "Talairach", Structure: "putamen", HasBand: true, BandLo: 64, BandHi: 255},
		)
	}
	rep := parallelReport{Workers: workers, Queries: len(specs)}

	start := time.Now()
	items := sys.RunQueries(specs, 1)
	rep.Batch.SerialWallNs = time.Since(start).Nanoseconds()
	for _, item := range items {
		if item.Err != nil {
			fail("batch %s: %v", item.Spec.Label(), item.Err)
		}
	}
	start = time.Now()
	if par := sys.RunQueries(specs, workers); len(par) != len(specs) {
		fail("parallel batch lost items")
	}
	rep.Batch.ParallelWallNs = time.Since(start).Nanoseconds()
	rep.Batch.WallSpeedup = ratio(rep.Batch.SerialWallNs, rep.Batch.ParallelWallNs)
	serialSim, parallelSim := qbism.BatchSim(items, workers)
	rep.Batch.SerialSimMs = float64(serialSim.Microseconds()) / 1e3
	rep.Batch.ParallelSimMs = float64(parallelSim.Microseconds()) / 1e3
	if parallelSim > 0 {
		rep.Batch.SimSpeedup = float64(serialSim) / float64(parallelSim)
	}

	bands := sys.BandRegions[sys.PETStudyIDs()[0]]
	b := bands[len(bands)/2]
	start = time.Now()
	serialRow, err := sys.Table4OneParallel(int(b.Lo), int(b.Hi), qbism.BandEncodingHilbertNaive, 1)
	if err != nil {
		fail("table4 serial: %v", err)
	}
	rep.Table4.SerialWallNs = time.Since(start).Nanoseconds()
	start = time.Now()
	parRow, err := sys.Table4OneParallel(int(b.Lo), int(b.Hi), qbism.BandEncodingHilbertNaive, workers)
	if err != nil {
		fail("table4 parallel: %v", err)
	}
	rep.Table4.ParallelWallNs = time.Since(start).Nanoseconds()
	if parRow.ResultVox != serialRow.ResultVox {
		fail("table4 parallel result diverged: %d vs %d voxels", parRow.ResultVox, serialRow.ResultVox)
	}
	rep.Table4.WallSpeedup = ratio(rep.Table4.SerialWallNs, rep.Table4.ParallelWallNs)
	return rep
}

// plannerSQL is the paper's mixed band+structure query (Table 3's Q6)
// with one extra spatial guard, numVoxels(as.region) > 0, written
// deliberately as the FIRST conjunct. With pushdown the planner
// evaluates it at the atlasStructure scan — once per structure row —
// and the cheap integer conjuncts run first everywhere. Without
// pushdown the whole WHERE clause runs in text order at the top of the
// FROM-order cross product, so the REGION-reading UDF executes for
// every combination of study x band x structure and the page counter
// shows exactly what the optimization saves.
const plannerSQL = `
select extractVoxels(wv.data, intersection(ib.region, as.region))
from   warpedVolume wv, intensityBand ib, atlasStructure as, neuralStructure ns
where  numVoxels(as.region) > 0 and
       wv.studyId = ? and
       ib.studyId = wv.studyId and ib.atlasId = wv.atlasId and
       ib.lo = ? and ib.hi = ? and ib.encoding = ? and
       as.atlasId = wv.atlasId and
       as.structureId = ns.structureId and
       ns.structureName = ?`

// measurePlanner A/Bs the SQL planner on the same loaded system:
// predicate pushdown + hash joins versus the de-optimized FROM-order
// nested-loop plan, same query, same binds. Results must be
// byte-identical; only the accounted LFM pages and wall time differ.
func measurePlanner(sys *qbism.System, iters int) plannerReport {
	study := sys.Studies[0].StudyID
	bands := sys.BandRegions[study]
	b := bands[len(bands)-1]
	args := []qbism.SQLValue{
		qbism.SQLInt(int64(study)),
		qbism.SQLInt(int64(b.Lo)), qbism.SQLInt(int64(b.Hi)),
		qbism.SQLStr(qbism.BandEncodingHilbertNaive),
		qbism.SQLStr("putamen"),
	}
	run := func(pushdown bool, its int) (blob []byte, pages uint64, nsOp int64) {
		sys.DB.SetPushdown(pushdown)
		before := sys.LFM.Stats().PageReads
		start := time.Now()
		var res *qbism.SQLResult
		for i := 0; i < its; i++ {
			var err error
			if res, err = sys.DB.Exec(plannerSQL, args...); err != nil {
				fail("planner (pushdown=%v): %v", pushdown, err)
			}
		}
		nsOp = time.Since(start).Nanoseconds() / int64(its)
		pages = (sys.LFM.Stats().PageReads - before) / uint64(its)
		if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
			fail("planner query returned %d rows", len(res.Rows))
		}
		return res.Rows[0][0].Y, pages, nsOp
	}

	var r plannerReport
	r.Query = strings.TrimSpace(plannerSQL)
	var onBlob, offBlob []byte
	onBlob, r.PushdownPages, r.PushdownNsOp = run(true, iters)
	// The de-optimized plan evaluates the spatial UDF across the cross
	// product; one iteration is plenty to count its pages.
	offBlob, r.NoPushdownPages, r.NoPushdownNsOp = run(false, 1)
	sys.DB.SetPushdown(true)
	r.Identical = bytes.Equal(onBlob, offBlob)
	if r.PushdownPages > 0 {
		r.PagesSavedFactor = float64(r.NoPushdownPages) / float64(r.PushdownPages)
	}
	expl, err := sys.DB.Exec("explain "+plannerSQL, args...)
	if err != nil {
		fail("explain: %v", err)
	}
	for _, row := range expl.Rows {
		r.Explain = append(r.Explain, row[0].S)
	}
	return r
}

// measureObs prices the observability layer: the Table 3 suite runs on
// two twin systems, one untraced and one with full span collection, and
// the ns/op gap is the tracing tax. On the traced twin it also checks
// the accounting invariant the spans promise: the "pages" counters
// summed over every query's span tree equal the LFM's own PageReads
// delta exactly — the trace is the I/O ledger, not an approximation.
func measureObs(cfg qbism.Config, iters int) obsReport {
	base, err := qbism.NewSystem(cfg)
	if err != nil {
		fail("load untraced twin: %v", err)
	}
	cfg.Trace = true
	traced, err := qbism.NewSystem(cfg)
	if err != nil {
		fail("load traced twin: %v", err)
	}
	specs := base.Table3Queries()
	pass := func(sys *qbism.System) int64 {
		start := time.Now()
		for _, spec := range specs {
			if _, err := sys.RunQuery(spec); err != nil {
				fail("%v: %v", spec, err)
			}
		}
		return time.Since(start).Nanoseconds() / int64(len(specs))
	}
	pass(base) // warm-up both twins
	pass(traced)

	// Interleave traced and untraced passes in adjacent pairs and take
	// the median of the per-pair ratios: host throughput drifts on a
	// timescale of seconds, so timing one full phase after the other
	// lets that drift masquerade as tracing overhead. Adjacent passes
	// share host conditions, and the median rejects the stragglers.
	reps := iters
	if reps < 5 {
		reps = 5
	}
	r := obsReport{Queries: len(specs)}
	us := make([]int64, 0, reps)
	ts := make([]int64, 0, reps)
	ratios := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		u := pass(base)
		tr := pass(traced)
		us = append(us, u)
		ts = append(ts, tr)
		ratios = append(ratios, float64(tr)/float64(u))
	}
	r.UntracedNsOp = medianInt64(us)
	r.TracedNsOp = medianInt64(ts)
	r.OverheadPct = 100 * (medianFloat(ratios) - 1)
	before := traced.LFM.Stats().PageReads
	var spans int
	for _, spec := range specs {
		res, err := traced.RunQuery(spec)
		if err != nil {
			fail("%v: %v", spec, err)
		}
		r.SpanPages += uint64(res.Trace.SumInt("pages"))
		spans += res.Trace.Count()
	}
	r.StatsPages = traced.LFM.Stats().PageReads - before
	r.SpanPagesExact = r.SpanPages == r.StatsPages
	r.SpansPerQuery = float64(spans) / float64(len(specs))
	return r
}

func medianInt64(v []int64) int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

func medianFloat(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)/2]
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// probeSink keeps the probe loops from being optimized away.
var probeSink bool

// measureQueryable benchmarks the queryable k³-tree representation
// against the run codecs on the largest synthetic structure REGION.
// Both probe timings price one UDF-style access from stored bytes: the
// runs path decodes the stored encoding and binary-searches the run
// list; the k³ path parses the encoded tree (rebuilding its rank
// directories) and descends the bitmaps. The intersection timings
// price a mixed band+structure query's region algebra the same way.
// The differential re-runs the query shapes on a Rencode:"runs" twin
// of the same corpus and compares result bytes.
func measureQueryable(sys *qbism.System, cfg qbism.Config, iters int) queryableReport {
	// Largest structure by voxel count.
	var biggest int
	for i, st := range sys.Atlas.Structures {
		if st.Region.NumVoxels() > sys.Atlas.Structures[biggest].Region.NumVoxels() {
			biggest = i
		}
	}
	st := sys.Atlas.Structures[biggest]
	r := queryableReport{
		Structure: st.Name,
		Voxels:    st.Region.NumVoxels(),
		Runs:      st.Region.NumRuns(),
	}
	var err error
	if r.NaiveBytes, err = qbism.EncodedRegionSize(qbism.EncodingNaive, st.Region); err != nil {
		fail("naive size: %v", err)
	}
	if r.EliasBytes, err = qbism.EncodedRegionSize(qbism.EncodingElias, st.Region); err != nil {
		fail("elias size: %v", err)
	}
	if r.K3Bytes, err = qbism.EncodedRegionSize(qbism.EncodingK3Tree, st.Region); err != nil {
		fail("k3 size: %v", err)
	}
	if r.EliasBytes > 0 {
		r.K3OverElias = float64(r.K3Bytes) / float64(r.EliasBytes)
	}
	naiveBytes, err := qbism.EncodeRegion(qbism.EncodingNaive, st.Region)
	if err != nil {
		fail("naive encode: %v", err)
	}
	k3Bytes, err := qbism.EncodeRegion(qbism.EncodingK3Tree, st.Region)
	if err != nil {
		fail("k3 encode: %v", err)
	}

	// Deterministic probe ids spread across the grid: half known
	// members, half arbitrary positions.
	n := st.Region.Curve().Length()
	var ids []uint64
	for i := uint64(0); i < 32; i++ {
		ids = append(ids, (i*2654435761)%n)
	}
	st.Region.ForEachID(func(id uint64) bool {
		ids = append(ids, id)
		return len(ids) < 64
	})

	probeIters := iters * 4
	start := time.Now()
	for it := 0; it < probeIters; it++ {
		for _, id := range ids {
			dec, derr := qbism.DecodeRegion(naiveBytes)
			if derr != nil {
				fail("decode: %v", derr)
			}
			probeSink = dec.ContainsID(id)
		}
	}
	r.DecodeProbeNsOp = time.Since(start).Nanoseconds() / int64(probeIters*len(ids))
	start = time.Now()
	for it := 0; it < probeIters; it++ {
		for _, id := range ids {
			p, perr := qbism.ParseK3Tree(k3Bytes)
			if perr != nil {
				fail("parse k3: %v", perr)
			}
			probeSink = p.ContainsID(id)
		}
	}
	r.K3ProbeNsOp = time.Since(start).Nanoseconds() / int64(probeIters*len(ids))
	r.ProbeSpeedup = ratio(r.DecodeProbeNsOp, r.K3ProbeNsOp)

	// Band ∩ structure: the mixed query's region algebra, priced from
	// each band representation's stored bytes.
	study := sys.Studies[0].StudyID
	bands := sys.BandRegions[study]
	band := bands[len(bands)/2].Region
	bandNaive, err := qbism.EncodeRegion(qbism.EncodingNaive, band)
	if err != nil {
		fail("band naive encode: %v", err)
	}
	bandK3, err := qbism.EncodeRegion(qbism.EncodingK3Tree, band)
	if err != nil {
		fail("band k3 encode: %v", err)
	}
	structRuns := st.Region.Runs()
	start = time.Now()
	for it := 0; it < probeIters; it++ {
		dec, derr := qbism.DecodeRegion(bandNaive)
		if derr != nil {
			fail("band decode: %v", derr)
		}
		probeSink = len(dec.IntersectRuns(structRuns)) > 0
	}
	r.DecodeIntersectNsOp = time.Since(start).Nanoseconds() / int64(probeIters)
	start = time.Now()
	for it := 0; it < probeIters; it++ {
		p, perr := qbism.ParseK3Tree(bandK3)
		if perr != nil {
			fail("band k3 parse: %v", perr)
		}
		probeSink = len(p.IntersectRuns(structRuns)) > 0
	}
	r.K3IntersectNsOp = time.Since(start).Nanoseconds() / int64(probeIters)
	r.IntersectSpeedup = ratio(r.DecodeIntersectNsOp, r.K3IntersectNsOp)

	// Differential: every query shape must answer byte-identically on
	// a runs-only twin of the same corpus.
	runsCfg := cfg
	runsCfg.Rencode = qbism.RencodeRuns
	runsSys, err := qbism.NewSystem(runsCfg)
	if err != nil {
		fail("load runs twin: %v", err)
	}
	defer runsSys.Close()
	b := bands[len(bands)/2]
	hi := uint32(sys.Side()/4 - 1)
	box := [6]uint32{0, 0, 0, hi, hi, hi}
	specs := []qbism.QuerySpec{
		{StudyID: study, Atlas: "Talairach", Box: &box},
		{StudyID: study, Atlas: "Talairach", Structure: st.Name},
		{StudyID: study, Atlas: "Talairach", HasBand: true, BandLo: int(b.Lo), BandHi: int(b.Hi)},
		{StudyID: study, Atlas: "Talairach", Structure: st.Name,
			HasBand: true, BandLo: int(b.Lo), BandHi: int(b.Hi)},
	}
	r.DifferentialOK = true
	for _, spec := range specs {
		ra, aerr := sys.RunQuery(spec)
		rb, berr := runsSys.RunQuery(spec)
		if aerr != nil || berr != nil {
			fail("differential %s: auto %v, runs %v", spec.Label(), aerr, berr)
		}
		ba, aerr := qbism.MarshalDataRegion(ra.Data, sys.Cfg.Method)
		bb, berr := qbism.MarshalDataRegion(rb.Data, runsSys.Cfg.Method)
		if aerr != nil || berr != nil {
			fail("differential marshal %s: %v %v", spec.Label(), aerr, berr)
		}
		if !bytes.Equal(ba, bb) {
			r.DifferentialOK = false
		}
	}
	return r
}
