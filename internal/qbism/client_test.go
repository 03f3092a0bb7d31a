package qbism

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"qbism/internal/bench"
	"qbism/internal/dx"
	"qbism/internal/medserver"
)

// The DX client is one piece of code under both deployments; these
// tests hold it to that.

// TestClusterOfOneMatchesSystem: a one-shard, no-replica cluster is the
// single node — same bytes, same image, same network bill, the same read
// record, same counters — and gains RunQueryCached by embedding the same
// Client.
func TestClusterOfOneMatchesSystem(t *testing.T) {
	cfg := Config{Bits: 5, NumPET: 2, NumMRI: 1, Seed: 11, SmallStudies: true}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	cs, err := NewClusterSystem(ClusterConfig{Shards: 1, Replicas: 0, Base: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()

	// The per-query I/O and network counters are each call's own bill,
	// so they must agree under the pool as they do one query at a time.
	same := func(label string, a, b *QueryResult) {
		t.Helper()
		am, bm := a.Meta, b.Meta
		am.DBCPUNanos, bm.DBCPUNanos = 0, 0
		if !reflect.DeepEqual(resultData(t, a), resultData(t, b)) || !reflect.DeepEqual(a.Image, b.Image) || !reflect.DeepEqual(am, bm) {
			t.Errorf("%s: cluster-of-one answer differs from the single node's", label)
		}
		if a.Read != b.Read || a.Read.Node != "s0p" || a.Read.Attempts != 1 || a.Read.Retries != 0 {
			t.Errorf("%s: read %+v on the node, %+v through the cluster; want one clean attempt served by s0p on both", label, a.Read, b.Read)
		}
		if a.Timing.NetMessages != b.Timing.NetMessages || a.Read.Net.Latency != b.Read.Net.Latency {
			t.Errorf("%s: network %d messages / %v on the node, %d / %v through the cluster", label,
				a.Timing.NetMessages, a.Read.Net.Latency, b.Timing.NetMessages, b.Read.Net.Latency)
		}
	}
	specs := sys.Table3Queries()
	for _, spec := range specs {
		a, err := sys.RunQuery(spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := cs.RunQuery(spec)
		if err != nil {
			t.Fatal(err)
		}
		same(spec.Label(), a, b)
	}

	as, partial, _ := sys.Client.RunQueries(specs, 2)
	if partial != nil {
		t.Fatalf("healthy node reported a partial batch: %v", partial)
	}
	bs, partial, _ := cs.RunQueries(specs, 2)
	if partial != nil {
		t.Fatalf("healthy cluster reported a partial batch: %v", partial)
	}
	for i := range specs {
		if as[i].Err != nil || bs[i].Err != nil {
			t.Fatalf("batch item %d: %v / %v", i, as[i].Err, bs[i].Err)
		}
		same("batch "+specs[i].Label(), as[i].Res, bs[i].Res)
	}
	total := func(c *Client) int64 { return c.Metrics.Counter("qbism_queries_total").Value() }
	if got, want := total(cs.Client), total(sys.Client); got != want || want != int64(2*len(specs)) {
		t.Errorf("qbism_queries_total: %d through the cluster, %d on the node, want %d", got, want, 2*len(specs))
	}

	spec := specs[2]
	fresh, err := cs.RunQuery(spec)
	if err != nil {
		t.Fatal(err)
	}
	cached, hit, err := cs.RunQueryCached(spec)
	if err != nil || !hit {
		t.Fatalf("RunQueryCached after RunQuery: hit=%v err=%v", hit, err)
	}
	if cached.Field != fresh.Field {
		t.Error("cache hit returned a different Field than the query that filled it")
	}
}

// TestRunQueryAllocBudget pins the client half beside the server
// ceilings of serve_alloc_test.go: a whole RunQuery through the sim
// transport on the shapes a DX session asks for, and a four-spec batch
// on two workers, whose answers and pixels are a slab each. The counts
// are exact means (bench.AllocsPerCall), so a seam that starts boxing
// its result, a pool that allocates per item, a reply decoded into a
// Region again or a header string copied out on its own trips here
// before it reaches the repo benchmark's allocs_per_query.
func TestRunQueryAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates, a few objects more or less per query from run to run")
	}
	sys := serveAllocSystem(t)
	small, mixed := serveAllocSpecs(sys.Server)
	full := QuerySpec{StudyID: small.StudyID, Atlas: "Talairach", FullStudy: true}
	paper, err := New(Config{Bits: 7, NumPET: 1, Seed: 7, SmallStudies: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { paper.Close() })
	q2Box := QuerySpec{StudyID: paper.Studies[0].StudyID, Atlas: "Talairach", Box: &[6]uint32{30, 30, 30, 100, 100, 100}}
	for _, tc := range []struct {
		name string
		sys  *System
		spec QuerySpec
		// As measured: the client's answer object, the reply the sim
		// link keeps for it, and the image's pixels — each kept by the
		// result; the server builds the reply in its free list's buffer
		// and allocates nothing else (DESIGN.md §11). The client renders
		// the reply's REGION off its encoded bytes into the answer,
		// frames the request in the answer's room, decodes the header's
		// strings into the answer's other room, keys the DX cache on the
		// spec's value, and a repeated query's Put moves its key in the
		// LRU list in place. These were 4, 4, 4 and 4 while the header's
		// strings were copied into a new string of their own (DESIGN.md
		// §14), the Q2 box's 7 while the server allocated for its box
		// REGION and run lists (§11), and 4, 4, 7 and 4 with ServeRPC's
		// 1, 1, 4 and 1 the reply among them before that. While the
		// client allocated the result, the field, the image header, the
		// request, the cache key string and each meta string apart, these
		// were 9, 9, 12 and 9. While the server copied its reply
		// into a frame of its own, these were 10, 10, 13 and 10. While
		// the client built a Table 3 label for every query, they were
		// 11, 11, 19 and 11. While it
		// decoded the REGION into a DataRegion, a Region and a run list
		// (none for the empty structure ∩ band answer here) and the
		// header into a new QueryMeta, these were 15, 14, 23 and 15.
		// ServeRPC is 1, 1, 4 and 1 of them. The Q2 box was 18 while
		// ServeRPC's extraction grew a range buffer five times a query.
		// Earlier the first two were 17 and 16 while the server copied
		// the spec's strings; 37 and 40 while it allocated per UDF call
		// and per statement and the sim link named spans with tracing
		// off; 51 and 57 with JSON headers.
		ceiling float64
	}{
		{"small-structure", sys, small, 3},
		{"structure-and-band", sys, mixed, 3},
		{"q2-box", paper, q2Box, 3},
		{"full-study", sys, full, 3},
	} {
		got := bench.AllocsPerCall(t.Logf, 20, func() {
			if _, err := tc.sys.RunQuery(tc.spec); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.3f allocs per RunQuery", tc.name, got)
		if got > tc.ceiling {
			t.Errorf("%s: %.3f allocs per RunQuery, ceiling %.0f — does the client decode the reply into a Region, or the header's strings into a string of their own, again?", tc.name, got, tc.ceiling)
		}
	}
	batch := []QuerySpec{small, mixed, small, mixed}
	// Two workers can run one statement at once, and sdb builds the
	// statement's second operator tree the first time they do, then keeps
	// it. Counting on one processor (bench.AllocsPerCall), the workers
	// overlap only when the scheduler preempts one mid-query; on a loaded
	// host that can fall inside the count, and the tree's build showed as
	// 21 or 22 allocations a batch. Reserve the trees two workers keep:
	// the count's warm-up run grows the reserved ones, and the ones the
	// queries above grew wait for the first overlap.
	if err := sys.Server.ReserveExecutions(2); err != nil {
		t.Fatal(err)
	}
	got := bench.AllocsPerCall(t.Logf, 20, func() {
		for _, item := range sys.RunQueries(batch, 2) {
			if item.Err != nil {
				t.Fatal(item.Err)
			}
		}
	})
	t.Logf("batch of 4 on 2 workers: %.3f allocs per RunQueries", got)
	if got > 10 { // as measured: the four replies, one answer slab, one pixel slab, the items, the pool's three (16 while each query allocated its own answer and pixels, 20 while each query's header strings were a string of their own, 40 while each query allocated its result's parts apart, 44 while the server copied each reply into a frame, 48 while each query built its label, 62 while replies were decoded into Regions, 72 while the server copied spec strings and the pool had a channel)
		t.Errorf("%.3f allocs per 4-spec RunQueries, ceiling 10 — does the pool allocate per item, or the batch each answer or each image's pixels on its own?", got)
	}
}

// BenchmarkRunQueryMixed is the structure ∩ band query end to end in
// one process — DX client, simulated link, server — as dx_interactive
// runs it: allocs/op is the whole chain's per-query bill, of which
// BenchmarkServeRPCMixed is the server's share. `make bench-smoke` runs
// it.
func BenchmarkRunQueryMixed(b *testing.B) {
	sys := serveAllocSystem(b)
	_, mixed := serveAllocSpecs(sys.Server)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.RunQuery(mixed); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCacheKeyMatchesWireKey: the DX cache's value key and QuerySpec.Key,
// the spec's wire bytes, agree on which specs are the same query — a
// merge the wire bytes do not make would be a wrong DX-cache hit, a
// split a needless miss. Generated specs drawn from small pools, so that
// many pairs collide on some fields, and the edges where a value key
// could go wrong: a nil box against an all-zero one, band bounds the
// band flag leaves off, an empty encoding against the k³-tree's label it
// resolves to, and strings that trade a byte across a field boundary.
func TestCacheKeyMatchesWireKey(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	pick := func(pool ...string) string { return pool[rng.Intn(len(pool))] }
	specs := []QuerySpec{
		{StudyID: 1, Atlas: "Talairach", FullStudy: true},
		{StudyID: 1, Atlas: "Talairach", FullStudy: true, Box: &[6]uint32{}},
		{StudyID: 1, Atlas: "Talairach", FullStudy: true, BandLo: 32, BandHi: 63},
		{StudyID: 1, Atlas: "Talairach", FullStudy: true, BandHi: 63},
		{StudyID: 1, Atlas: "Talairach", HasBand: true, BandLo: 32, BandHi: 63},
		{StudyID: 1, Atlas: "Talairach", HasBand: true, BandLo: 32, BandHi: 63, Encoding: medserver.EncK3Tree},
		{StudyID: 1, Atlas: "ab", Structure: "c"},
		{StudyID: 1, Atlas: "a", Structure: "bc"},
		{StudyID: 1, Atlas: "a", Structure: "b", Encoding: "c"},
		{StudyID: 1, Atlas: "a", Structure: "", Encoding: "bc"},
		{StudyID: 1, Atlas: "", Structure: "ab", Encoding: "c"},
	}
	for i := 0; i < 400; i++ {
		q := QuerySpec{
			StudyID:   rng.Intn(3) - 1,
			Atlas:     pick("", "Talairach", "a", "ab"),
			FullStudy: rng.Intn(2) == 0,
			Structure: pick("", "putamen", "b", "bc", "c"),
			HasBand:   rng.Intn(2) == 0,
			BandLo:    []int{0, 32, -1}[rng.Intn(3)],
			BandHi:    []int{0, 63}[rng.Intn(2)],
			Encoding:  pick("", medserver.EncK3Tree, medserver.EncHilbertNaive, "c"),
		}
		if rng.Intn(2) == 0 {
			var box [6]uint32
			box[rng.Intn(6)] = uint32(rng.Intn(2))
			q.Box = &box // a new pointer each time: equal boxes compare by value
		}
		specs = append(specs, q)
	}
	merged := 0
	for i, a := range specs {
		for _, b := range specs[i:] {
			wire, value := a.Key() == b.Key(), cacheKeyOf(a) == cacheKeyOf(b)
			if wire != value {
				t.Fatalf("%+v and %+v: wire keys equal %t, value keys equal %t", a, b, wire, value)
			}
			if value {
				merged++
			}
		}
	}
	if merged <= len(specs) {
		t.Fatalf("only %d equal pairs among %d specs: the pools no longer collide", merged, len(specs))
	}
	// The edge cases above are distinct queries on the wire, and so in
	// the cache.
	c := dx.NewCache[cacheKey](len(specs))
	for i, q := range specs[:11] {
		c.Put(cacheKeyOf(q), &dx.Field{Side: i})
	}
	for i, q := range specs[:11] {
		if f, ok := c.Get(cacheKeyOf(q)); !ok || f.Side != i {
			t.Errorf("%+v: the cache does not give back its own field", q)
		}
	}
}

// TestCachedFieldPinsOnlyItsAnswer: a DX cache entry keeps its own
// answer alive — the reply its field points into, the image, the answer
// object with its request room — and nothing of the queries around it.
// After 3×8 distinct full-study queries at Bits 6 the heap has grown by
// at most the eight entries the cache holds, plus slack: a slab shared
// by several answers, or a field pinning its neighbors' replies, would
// keep about three times that.
func TestCachedFieldPinsOnlyItsAnswer(t *testing.T) {
	sys, err := New(Config{Bits: 6, NumPET: 2, NumMRI: 1, Seed: 7, SmallStudies: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// A first query of another shape grows what the server keeps
	// between requests; it is small, and the full-study queries evict
	// it from the cache.
	if _, err := sys.RunQuery(QuerySpec{StudyID: sys.Studies[0].StudyID, Atlas: "Talairach", Structure: "putamen"}); err != nil {
		t.Fatal(err)
	}
	before := heap()
	var entry uint64 // one cache entry: the reply, the image and the answer
	for _, st := range sys.Studies {
		for i := 0; i < 8; i++ {
			// The band bounds, off without the band flag, make each spec
			// a distinct query of the same answer.
			res, err := sys.RunQuery(QuerySpec{StudyID: st.StudyID, Atlas: "Talairach", FullStudy: true, BandLo: i})
			if err != nil {
				t.Fatal(err)
			}
			entry = max(entry, res.Field.NumVoxels()+uint64(len(res.Image.Pix))+4<<10)
		}
	}
	if len(sys.Studies) != 3 {
		t.Fatalf("%d studies, want 3", len(sys.Studies))
	}
	after := heap()
	runtime.KeepAlive(sys.Client) // the cache, live through the measurement
	grown := int64(after) - int64(before)
	limit := int64(8*entry + 2*entry) // eight entries and two more of slack
	t.Logf("heap grew %d KiB over 24 queries; an entry is %d KiB, the limit %d KiB", grown>>10, entry>>10, limit>>10)
	if grown > limit {
		t.Errorf("heap grew %d KiB over 24 full-study queries, limit %d KiB (8 cached entries of %d KiB, and slack) — does a cached field pin more than its own answer?",
			grown>>10, limit>>10, entry>>10)
	}
}
