package qbism

import (
	"reflect"
	"testing"
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
	cs, err := NewClusterSystem(ClusterConfig{Shards: 1, Replicas: -1, Base: cfg})
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

	as := sys.RunQueries(specs, 2)
	bs, partial := cs.RunQueries(specs, 2)
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
// on two workers. A seam that starts boxing its result, a pool that
// allocates per item, or a reply decoded into a Region again trips here
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
		// As measured. The client renders the reply's REGION off its
		// encoded bytes and decodes the reply header into its own
		// value, and a repeated query's Put moves its key in the DX
		// cache's LRU list in place. While the server copied its reply
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
		{"small-structure", sys, small, 9},
		{"structure-and-band", sys, mixed, 9},
		{"q2-box", paper, q2Box, 12},
		{"full-study", sys, full, 9},
	} {
		got := testing.AllocsPerRun(20, func() {
			if _, err := tc.sys.RunQuery(tc.spec); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per RunQuery", tc.name, got)
		if got > tc.ceiling {
			t.Errorf("%s: %.0f allocs per RunQuery, ceiling %.0f — does the client decode the reply into a Region again?", tc.name, got, tc.ceiling)
		}
	}
	batch := []QuerySpec{small, mixed, small, mixed}
	got := testing.AllocsPerRun(20, func() {
		for _, item := range sys.RunQueries(batch, 2) {
			if item.Err != nil {
				t.Fatal(item.Err)
			}
		}
	})
	t.Logf("batch of 4 on 2 workers: %.0f allocs per RunQueries", got)
	if got > 40 { // as measured: four queries, the items, the pool (44 while the server copied each reply into a frame, 48 while each query built its label, 62 while replies were decoded into Regions, 72 while the server copied spec strings and the pool had a channel)
		t.Errorf("%.0f allocs per 4-spec RunQueries, ceiling 40 — does the pool allocate per item?", got)
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
