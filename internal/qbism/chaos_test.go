package qbism

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"time"

	"qbism/internal/cluster"
	"qbism/internal/faultsim"
	"qbism/internal/medserver"
	"qbism/internal/obs"
	"qbism/internal/rencode"
	"qbism/internal/transport"
	"qbism/internal/volume"
)

// chaosBaseConfig is a small, fast system for chaos runs. Every page
// read is verified, so silent device corruption is detectable end to end.
func chaosBaseConfig() Config {
	return Config{
		Bits:         4,
		NumPET:       2,
		NumMRI:       1,
		Seed:         11,
		SmallStudies: true,
	}
}

// chaosLinkPolicy and chaosDevicePolicy keep the per-decision fault rate
// at or below 10% combined while exercising every fault kind, including
// the silent ones (Tamper, PageCorrupt) that only the integrity layer
// can catch.
func chaosLinkPolicy(seed uint64) *faultsim.Policy {
	return &faultsim.Policy{
		Seed: seed, DropProb: 0.02, TimeoutProb: 0.02, LatencyProb: 0.02,
		CorruptProb: 0.015, TamperProb: 0.015, ExtraLatency: 5e6, // 5ms
	}
}

func chaosDevicePolicy(seed uint64) *faultsim.Policy {
	// Device decisions happen per page touched; at Bits:4 a query only
	// touches a couple of pages, so 2%+2% keeps the per-query device
	// fault rate in the same ballpark as the link's.
	return &faultsim.Policy{Seed: seed, ReadErrProb: 0.02, PageCorruptProb: 0.02}
}

// chaosSpecPool returns the query mix: full studies, boxes, structures,
// stored bands, and mixed band+structure queries across all studies.
func chaosSpecPool(s *System) []QuerySpec {
	var pool []QuerySpec
	box := [6]uint32{2, 2, 2, 11, 11, 11}
	for _, st := range s.Studies {
		id := st.StudyID
		pool = append(pool,
			QuerySpec{StudyID: id, Atlas: "Talairach", FullStudy: true},
			QuerySpec{StudyID: id, Atlas: "Talairach", Box: &box},
			QuerySpec{StudyID: id, Atlas: "Talairach", Structure: "ntal"},
			QuerySpec{StudyID: id, Atlas: "Talairach", Structure: "putamen"},
		)
		for _, b := range s.BandRegions[id] {
			pool = append(pool, QuerySpec{StudyID: id, Atlas: "Talairach", HasBand: true, BandLo: int(b.Lo), BandHi: int(b.Hi)})
			pool = append(pool, QuerySpec{StudyID: id, Atlas: "Talairach", HasBand: true, BandLo: int(b.Lo), BandHi: int(b.Hi), Structure: "ntal"})
			if len(pool) > 40 {
				break
			}
		}
	}
	return pool
}

// newFaulty builds a System and installs link's faults on its link,
// returning the injector so a test can count what it fired.
func newFaulty(t *testing.T, cfg Config, link *faultsim.Policy, opts ...Option) (*System, *faultsim.Injector) {
	t.Helper()
	sys, err := New(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultsim.New(*link)
	sys.Transport.SetFaults(inj)
	return sys, inj
}

// resultData decodes a query result's DataRegion (QueryResult.Data).
func resultData(t testing.TB, res *QueryResult) *volume.DataRegion {
	t.Helper()
	d, err := res.Data()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// marshalResult canonicalizes a query result for byte comparison.
func marshalResult(t *testing.T, method rencode.Method, res *QueryResult) []byte {
	t.Helper()
	blob, err := MarshalDataRegion(resultData(t, res), method)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestChaosQueries is the headline robustness check: several hundred
// queries against a system with faults injected on both the link and the
// device. Every query must either return bytes identical to the
// fault-free run or fail with a typed, classified error — retryable, or a
// node fault where one page's transfer and its re-read both flipped,
// which reads as rot — never panic, never silently return corrupted data
// — and with retries enabled the success rate must stay at or above 95%.
func TestChaosQueries(t *testing.T) {
	clean, err := New(chaosBaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	pool := chaosSpecPool(clean)
	want := make(map[string][]byte)
	for _, spec := range pool {
		res, err := clean.RunQuery(spec)
		if err != nil {
			t.Fatalf("fault-free baseline failed for %s: %v", spec.Label(), err)
		}
		want[spec.Key()] = marshalResult(t, clean.Cfg.Method, res)
	}
	if len(pool) < 12 {
		t.Fatalf("spec pool too small: %d", len(pool))
	}

	cfg := chaosBaseConfig()
	cfg.DeviceFaults = chaosDevicePolicy(202)
	sys, linkFaults := newFaulty(t, cfg, chaosLinkPolicy(101), WithRetry(transport.DefaultRetryPolicy()))

	const queries = 300
	pick := faultsim.NewRand(999)
	succeeded, retried, nodeFaults := 0, 0, 0
	for i := 0; i < queries; i++ {
		spec := pool[pick.Intn(len(pool))]
		res, err := sys.RunQuery(spec)
		if err != nil {
			if errors.Is(err, transport.ErrNodeFault) {
				nodeFaults++
			} else if !transport.RetryableError(err) {
				t.Fatalf("query %d (%s): fatal-classified error escaped: %v", i, spec.Label(), err)
			}
			continue
		}
		succeeded++
		retried += res.Read.Retries
		if got := marshalResult(t, sys.Cfg.Method, res); !bytes.Equal(got, want[spec.Key()]) {
			t.Fatalf("query %d (%s): silent corruption — result differs from fault-free run (degraded=%v)",
				i, spec.Label(), res.Meta.Degraded)
		}
		if res.Read.Retries > 0 && PriceQuery(res).Retry == 0 {
			t.Errorf("query %d: %d retries but no simulated backoff", i, res.Read.Retries)
		}
	}
	t.Logf("%d/%d queries succeeded; %d stopped on a node fault", succeeded, queries, nodeFaults)
	if rate := float64(succeeded) / queries; rate < 0.95 {
		t.Errorf("success rate %.3f < 0.95 (%d/%d)", rate, succeeded, queries)
	}
	if retried == 0 {
		t.Error("no retries happened — fault injection appears inert")
	}

	drops, timeouts := linkFaults.Count(faultsim.Drop), linkFaults.Count(faultsim.Timeout)
	corruptions, tampers := linkFaults.Count(faultsim.Corrupt), linkFaults.Count(faultsim.Tamper)
	if drops+timeouts+corruptions+tampers == 0 {
		t.Errorf("no link faults fired: %v", linkFaults.Counts())
	}
	if got := sys.Metrics.Counter("qbism_retries_total").Value(); got != int64(retried) {
		t.Errorf("qbism_retries_total %d != summed query retries %d", got, retried)
	}
	if sys.DeviceFaults.Count(faultsim.ReadErr)+sys.DeviceFaults.Count(faultsim.PageCorrupt) == 0 {
		t.Error("no device faults fired")
	}
	t.Logf("chaos: %d/%d ok, %d retries, link faults %d/%d/%d/%d, device faults %v",
		succeeded, queries, retried, drops, timeouts, corruptions, tampers,
		sys.DeviceFaults.Counts())
}

// TestChaosDeterminism runs the same chaos workload twice on identically
// configured systems: stats, fault counters, and every per-query outcome
// must match exactly.
func TestChaosDeterminism(t *testing.T) {
	type outcome struct {
		OK      bool
		Retries int
		Blob    string
	}
	run := func() ([]outcome, map[faultsim.Kind]uint64, map[faultsim.Kind]uint64) {
		cfg := chaosBaseConfig()
		cfg.DeviceFaults = chaosDevicePolicy(8)
		sys, link := newFaulty(t, cfg, chaosLinkPolicy(7), WithRetry(transport.DefaultRetryPolicy()))
		pool := chaosSpecPool(sys)
		pick := faultsim.NewRand(55)
		var outs []outcome
		for i := 0; i < 120; i++ {
			spec := pool[pick.Intn(len(pool))]
			res, err := sys.RunQuery(spec)
			o := outcome{OK: err == nil}
			if err == nil {
				o.Retries = res.Read.Retries
				o.Blob = string(marshalResult(t, sys.Cfg.Method, res))
			}
			outs = append(outs, o)
		}
		return outs, link.Counts(), sys.DeviceFaults.Counts()
	}
	o1, l1, d1 := run()
	o2, l2, d2 := run()
	if !reflect.DeepEqual(o1, o2) {
		t.Error("per-query outcomes diverged between identical runs")
	}
	if !reflect.DeepEqual(l1, l2) || !reflect.DeepEqual(d1, d2) {
		t.Errorf("fault counters diverged: link %v vs %v, device %v vs %v", l1, l2, d1, d2)
	}
}

// TestDegradedBandRecompute corrupts a stored intensityBand REGION at
// rest and checks the server degrades to recomputing the band from the
// VOLUME: the query succeeds, is marked Degraded with a warning, and the
// voxel bytes are identical to the healthy fast path.
func TestDegradedBandRecompute(t *testing.T) {
	sys, err := New(chaosBaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	study := sys.Studies[0].StudyID
	bands := sys.BandRegions[study]
	if len(bands) == 0 {
		t.Fatal("study has no stored bands")
	}
	b := bands[len(bands)/2]
	spec := QuerySpec{StudyID: study, Atlas: "Talairach", HasBand: true, BandLo: int(b.Lo), BandHi: int(b.Hi)}

	healthy, err := sys.RunQuery(spec)
	if err != nil {
		t.Fatal(err)
	}
	if healthy.Meta.Degraded {
		t.Fatalf("healthy run already degraded: %s", healthy.Meta.Warning)
	}

	// Flip one stored bit of the band's REGION long field, behind the
	// checksum table (simulated bit rot). The corrupted row must be the
	// one the default encoding resolves to, the k³-tree row.
	res, err := sys.DB.Exec(fmt.Sprintf(
		"select ib.region from intensityBand ib where ib.studyId = %d and ib.lo = %d and ib.hi = %d and ib.encoding = '%s'",
		study, b.Lo, b.Hi, medserver.EncK3Tree))
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("band row lookup: %d rows, %v", len(res.Rows), err)
	}
	h := res.Rows[0][0].L
	if err := sys.LFM.Corrupt(h, 3, 0x40); err != nil {
		t.Fatal(err)
	}

	degraded, err := sys.RunQuery(spec)
	if err != nil {
		t.Fatalf("corrupted band did not degrade, it failed: %v", err)
	}
	if !degraded.Meta.Degraded || degraded.Meta.Warning == "" {
		t.Errorf("not marked degraded: %+v", degraded.Meta)
	}
	t.Log(degraded.Meta.Warning)
	hb := marshalResult(t, sys.Cfg.Method, healthy)
	db := marshalResult(t, sys.Cfg.Method, degraded)
	if !bytes.Equal(hb, db) {
		t.Error("degraded result differs from fast path")
	}
	if sys.LFM.Stats().ChecksumFailures == 0 {
		t.Error("checksum failure not counted")
	}
	// The slow path costs a full VOLUME read, so it must touch at least
	// as many pages as the fast path did.
	if degraded.Timing.LFMPages < healthy.Timing.LFMPages {
		t.Errorf("slow path pages %d < fast path %d", degraded.Timing.LFMPages, healthy.Timing.LFMPages)
	}

	// Mixed band+structure queries take the same fallback.
	mixed := spec
	mixed.Structure = "ntal"
	mres, err := sys.RunQuery(mixed)
	if err != nil {
		t.Fatalf("mixed degraded query failed: %v", err)
	}
	if !mres.Meta.Degraded {
		t.Error("mixed query not marked degraded")
	}
}

// TestBandReadFaultIsRetriedNotDegraded: a transient device read fault
// on the first page a band query transfers is not a lost band. The call
// fails as the retryable ErrRemote, and the retry reads the stored band:
// the answer is the fault-free one, not marked Degraded, and the
// degraded counter does not move. Alone and ∩ a structure.
func TestBandReadFaultIsRetriedNotDegraded(t *testing.T) {
	clean, err := New(chaosBaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	study := clean.Studies[0].StudyID
	b := clean.BandRegions[study][len(clean.BandRegions[study])/2]
	for _, structure := range []string{"", "ntal"} {
		spec := QuerySpec{StudyID: study, Atlas: "Talairach", Structure: structure, HasBand: true, BandLo: int(b.Lo), BandHi: int(b.Hi)}
		want, err := clean.RunQuery(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := chaosBaseConfig()
		cfg.DeviceFaults = &faultsim.Policy{Schedule: []faultsim.Scheduled{{Op: 1, Kind: faultsim.ReadErr}}}
		sys, err := New(cfg, WithRetry(transport.DefaultRetryPolicy()))
		if err != nil {
			t.Fatal(err)
		}
		degraded := sys.Metrics.Counter("qbism_degraded_total")
		res, err := sys.RunQuery(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Label(), err)
		}
		if sys.DeviceFaults.Count(faultsim.ReadErr) != 1 {
			t.Fatalf("%s: the scheduled read fault did not fire: %v", spec.Label(), sys.DeviceFaults.Counts())
		}
		if res.Meta.Degraded || res.Read.Retries < 1 || degraded.Value() != 0 {
			t.Errorf("%s: degraded %v (%q), %d retries, qbism_degraded_total %d; want a retried, undegraded answer",
				spec.Label(), res.Meta.Degraded, res.Meta.Warning, res.Read.Retries, degraded.Value())
		}
		if !bytes.Equal(marshalResult(t, sys.Cfg.Method, res), marshalResult(t, clean.Cfg.Method, want)) {
			t.Errorf("%s: the answer differs from the fault-free one", spec.Label())
		}
	}
}

// TestRetryExhaustionIsTyped drives the link at a 100% drop rate: every
// query must fail after exactly MaxAttempts tries with a typed,
// retryable error — proof the client never spins forever and never
// converts exhaustion into an untyped failure.
func TestRetryExhaustionIsTyped(t *testing.T) {
	sys, _ := newFaulty(t, chaosBaseConfig(), &faultsim.Policy{DropProb: 1.0}, WithRetry(transport.RetryPolicy{MaxAttempts: 3}))
	spec := QuerySpec{StudyID: sys.Studies[0].StudyID, Atlas: "Talairach", FullStudy: true}
	_, qerr := sys.RunQuery(spec)
	if qerr == nil {
		t.Fatal("query succeeded across a dead link")
	}
	if !errors.Is(qerr, transport.ErrDropped) {
		t.Errorf("not a drop error: %v", qerr)
	}
	if !transport.RetryableError(qerr) {
		t.Errorf("exhaustion error lost its retryable classification: %v", qerr)
	}
	if got := sys.Metrics.Counter("qbism_retries_total").Value(); got != 2 {
		t.Errorf("qbism_retries_total = %d, want 2 (3 attempts)", got)
	}
}

// TestSingleServerBatchPartial: a single server is a cluster of one, so
// a batch that loses its node reports the partial a cluster would — shard
// 0, every key, counted — and the same shard 0 the population call names.
func TestSingleServerBatchPartial(t *testing.T) {
	sys, _ := newFaulty(t, chaosBaseConfig(), deadLink(), WithRetry(transport.RetryPolicy{MaxAttempts: 2}))
	defer sys.Close()
	var specs []QuerySpec
	var keys []cluster.Key
	for _, st := range sys.Studies {
		specs = append(specs, QuerySpec{StudyID: st.StudyID, Atlas: "Talairach", Structure: "ntal"})
		keys = append(keys, cluster.Key{Study: st.StudyID})
	}
	items, partial, _ := sys.Client.RunQueries(specs, 2)
	for _, item := range items {
		if !errors.Is(item.Err, cluster.ErrShardUnavailable) {
			t.Errorf("%s: %v, want ErrShardUnavailable", item.Spec.Label(), item.Err)
		}
	}
	if got := partial.LostShards(); len(got) != 1 || got[0] != 0 || partial.TotalShards != 1 {
		t.Fatalf("partial %v, want shard 0 of 1 lost", partial)
	}
	if got := partial.Failed[0].Keys; !slices.Equal(got, keys) {
		t.Errorf("lost keys %v, want %v", got, keys)
	}
	if n, lost := sys.Metrics.Counter("cluster_partial_total").Value(), sys.Metrics.Counter("cluster_lost_queries_total").Value(); n != 1 || lost != int64(len(specs)) {
		t.Errorf("cluster_partial_total %d, cluster_lost_queries_total %d; want 1 and %d", n, lost, len(specs))
	}
	_, pop, err := sys.Client.ConsistentBandRegion(sys.PETStudyIDs(), 0, 31, EncHilbertNaive, 1)
	if !errors.Is(err, cluster.ErrShardUnavailable) {
		t.Errorf("population call over a dead link: %v, want ErrShardUnavailable", err)
	}
	if got := pop.LostShards(); !slices.Equal(got, partial.LostShards()) {
		t.Errorf("population call lost shards %v, the batch %v", got, partial.LostShards())
	}
}

// ---------------------------------------------------------------------------
// Degraded-shard suite: the cluster under slow, dead, corrupt, and
// flapping nodes. Every test asserts the graceful-degradation contract:
// a query either returns bytes identical to an unsharded fault-free
// control system (replica failover) or fails with a typed error that a
// scatter-gather folds into a PartialResult naming the lost shard —
// never a silent wrong answer.

// clusterChaosConfig is a small 2-shard, primary+replica cluster over
// the chaos corpus. Its front end reads with clusterRetry(4) unless a
// test says otherwise.
func clusterChaosConfig() ClusterConfig {
	return ClusterConfig{
		Shards:   2,
		Replicas: 1,
		Base:     chaosBaseConfig(),
	}
}

// clusterRetry is the degraded-shard suite's retry policy: attempts node
// calls per read, with a fixed jitter seed.
func clusterRetry(attempts int) Option {
	return WithRetry(transport.RetryPolicy{MaxAttempts: attempts, Seed: 9})
}

// clusterControl builds the unsharded control system over the same
// corpus: replicas and shards synthesize from the same global (ID,
// seed) slots, so its answers are the byte-exact truth.
func clusterControl(t *testing.T) (*System, map[string][]byte) {
	t.Helper()
	control, err := New(chaosBaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string][]byte)
	for _, spec := range chaosSpecPool(control) {
		res, err := control.RunQuery(spec)
		if err != nil {
			t.Fatalf("control failed for %s: %v", spec.Label(), err)
		}
		want[spec.Key()] = marshalResult(t, control.Cfg.Method, res)
	}
	return control, want
}

// deadLink is a 100% drop policy: every dial of the node fails typed.
func deadLink() *faultsim.Policy { return &faultsim.Policy{DropProb: 1.0} }

// TestClusterBaselineByteIdentical: with no faults anywhere, every
// query through the cluster returns bytes identical to the unsharded
// control, every read is served by a primary with no failovers, and
// the corpus is actually partitioned (no node holds everything).
func TestClusterBaselineByteIdentical(t *testing.T) {
	control, want := clusterControl(t)
	cs, err := NewClusterSystem(clusterChaosConfig(), clusterRetry(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Studies) != len(control.Studies) {
		t.Fatalf("cluster corpus %d studies, control %d", len(cs.Studies), len(control.Studies))
	}
	total := 0
	for sh, nodes := range cs.Nodes {
		n := len(nodes[0].Studies)
		total += n
		for r := 1; r < len(nodes); r++ {
			if len(nodes[r].Studies) != n {
				t.Fatalf("shard %d replica %d holds %d studies, primary %d", sh, r, len(nodes[r].Studies), n)
			}
		}
		if n == len(control.Studies) {
			t.Errorf("shard %d holds the whole corpus — not partitioned", sh)
		}
	}
	if total != len(control.Studies) {
		t.Fatalf("shards hold %d studies total, corpus has %d", total, len(control.Studies))
	}
	for _, spec := range chaosSpecPool(control) {
		res, err := cs.RunQuery(spec)
		if err != nil {
			t.Fatalf("cluster query %s: %v", spec.Label(), err)
		}
		if got := marshalResult(t, control.Cfg.Method, res); !bytes.Equal(got, want[spec.Key()]) {
			t.Fatalf("cluster result differs from control for %s", spec.Label())
		}
		if res.Read.Failovers != 0 || res.Read.Attempts != 1 {
			t.Errorf("fault-free read did extra work: %+v", res.Read)
		}
		if sh, ok := cs.Route(spec.StudyID); !ok || sh != res.Read.Shard {
			t.Errorf("route says shard %d (ok=%v), served by %d", sh, ok, res.Read.Shard)
		}
	}
	if got := cs.Metrics.Counter("cluster_failover_total").Value(); got != 0 {
		t.Errorf("cluster_failover_total = %d on a healthy cluster", got)
	}
}

// TestClusterNodeKilledMidRun is the acceptance scenario: a primary is
// killed partway through a run. Every query before the kill is served
// by the primary; every query after fails over to the replica — and
// all of them return bytes identical to the control. The failover
// counter matches the injected drop count exactly.
func TestClusterNodeKilledMidRun(t *testing.T) {
	control, want := clusterControl(t)
	cs, err := NewClusterSystem(clusterChaosConfig(), clusterRetry(4))
	if err != nil {
		t.Fatal(err)
	}
	pool := chaosSpecPool(control)
	// Kill the shard that serves the most pool queries.
	perShard := map[int]int{}
	for _, spec := range pool {
		sh, _ := cs.Route(spec.StudyID)
		perShard[sh]++
	}
	victim, best := 0, -1
	for sh, n := range perShard {
		if n > best || (n == best && sh < victim) {
			victim, best = sh, n
		}
	}

	kill := len(pool) / 2
	inj := faultsim.New(*deadLink())
	onVictim, failovers := 0, 0
	for i, spec := range pool {
		if i == kill {
			cs.Nodes[victim][0].Transport.SetFaults(inj)
		}
		res, err := cs.RunQuery(spec)
		if err != nil {
			t.Fatalf("query %d (%s) failed despite a live replica: %v", i, spec.Label(), err)
		}
		if got := marshalResult(t, control.Cfg.Method, res); !bytes.Equal(got, want[spec.Key()]) {
			t.Fatalf("query %d (%s): result differs from control", i, spec.Label())
		}
		sh, _ := cs.Route(spec.StudyID)
		if sh != victim {
			continue
		}
		onVictim++
		if i < kill {
			if res.Read.Node != fmt.Sprintf("s%dp", victim) {
				t.Errorf("query %d before kill served by %s, want primary", i, res.Read.Node)
			}
		} else {
			if res.Read.Node != fmt.Sprintf("s%dr1", victim) {
				t.Errorf("query %d after kill served by %s, want replica", i, res.Read.Node)
			}
			if res.Read.Failovers != 1 {
				t.Errorf("query %d after kill: failovers = %d, want 1", i, res.Read.Failovers)
			}
			failovers += res.Read.Failovers
		}
	}
	if onVictim < 4 {
		t.Fatalf("victim shard served only %d pool queries — test is vacuous", onVictim)
	}
	// Exact accounting: one drop injected per post-kill dial of the dead
	// primary, one failover per post-kill read.
	drops := inj.Count(faultsim.Drop)
	if got := cs.Metrics.Counter("cluster_failover_total").Value(); got != int64(failovers) || got != int64(drops) {
		t.Errorf("cluster_failover_total = %d, want %d (= injected drops %d)", got, failovers, drops)
	}
	if got := cs.Metrics.Counter("cluster_partial_total").Value(); got != 0 {
		t.Errorf("cluster_partial_total = %d, but no shard was lost", got)
	}
}

// TestClusterDeadShardPartial kills both nodes of a shard: scatter-
// gather returns the surviving shards' results byte-identical plus a
// typed PartialResult naming exactly the lost shard, and the partial /
// unavailable counters match the loss exactly.
func TestClusterDeadShardPartial(t *testing.T) {
	control, want := clusterControl(t)
	cfg := clusterChaosConfig()
	// Pick the victim from the routing alone (stable across runs).
	part := cluster.NewPartitioner(cfg.Shards)
	victim := part.Shard(cluster.Key{Patient: control.Studies[0].PatientID, Study: control.Studies[0].StudyID})
	cfg.NodeFaults = func(shard, replica int) (link, device *faultsim.Policy) {
		if shard == victim {
			return deadLink(), nil
		}
		return nil, nil
	}
	cs, err := NewClusterSystem(cfg, clusterRetry(2))
	if err != nil {
		t.Fatal(err)
	}
	pool := chaosSpecPool(control)
	items, partial, _ := cs.RunQueries(pool, 1)

	lost := 0
	for i, item := range items {
		sh, _ := cs.Route(item.Spec.StudyID)
		if sh == victim {
			lost++
			if item.Err == nil {
				t.Fatalf("item %d on dead shard %d succeeded", i, victim)
			}
			if !errors.Is(item.Err, cluster.ErrShardUnavailable) {
				t.Fatalf("item %d: error not typed ErrShardUnavailable: %v", i, item.Err)
			}
			if !errors.Is(item.Err, transport.ErrDropped) {
				t.Errorf("item %d: underlying drop lost from chain: %v", i, item.Err)
			}
			continue
		}
		if item.Err != nil {
			t.Fatalf("item %d on healthy shard failed: %v", i, item.Err)
		}
		if got := marshalResult(t, control.Cfg.Method, item.Res); !bytes.Equal(got, want[item.Spec.Key()]) {
			t.Fatalf("item %d: surviving result differs from control", i)
		}
	}
	if lost == 0 {
		t.Fatal("no pool queries routed to the victim shard — test is vacuous")
	}
	if partial == nil {
		t.Fatal("no PartialResult despite a dead shard")
	}
	if ls := partial.LostShards(); len(ls) != 1 || ls[0] != victim {
		t.Fatalf("partial names shards %v, want [%d]", ls, victim)
	}
	if partial.LostKeys() != lost {
		t.Errorf("partial reports %d lost keys, want %d", partial.LostKeys(), lost)
	}
	if partial.TotalShards != cfg.Shards {
		t.Errorf("partial.TotalShards = %d, want %d", partial.TotalShards, cfg.Shards)
	}
	// Exact metric accounting: one partial batch, one unavailable read
	// per lost item.
	if got := cs.Metrics.Counter("cluster_partial_total").Value(); got != 1 {
		t.Errorf("cluster_partial_total = %d, want 1", got)
	}
	if got := cs.Metrics.Counter("cluster_lost_queries_total").Value(); got != int64(lost) {
		t.Errorf("cluster_lost_queries_total = %d, want %d", got, lost)
	}
	if got := cs.Metrics.Counter("cluster_shard_unavailable_total").Value(); got != int64(lost) {
		t.Errorf("cluster_shard_unavailable_total = %d, want %d", got, lost)
	}
}

// TestClusterCorruptNodeFailover corrupts every page the primary's
// device returns: checksums turn the rot into typed errors and reads
// fail over to the replica — except where the server can degrade to an
// in-memory recompute (band queries), which is equally correct. Either
// way every answer stays byte-identical to the control.
func TestClusterCorruptNodeFailover(t *testing.T) {
	control, want := clusterControl(t)
	cfg := clusterChaosConfig()
	cfg.NodeFaults = func(shard, replica int) (link, device *faultsim.Policy) {
		if replica == 0 {
			return nil, &faultsim.Policy{PageCorruptProb: 1.0}
		}
		return nil, nil
	}
	cs, err := NewClusterSystem(cfg, clusterRetry(4))
	if err != nil {
		t.Fatal(err)
	}
	failovers := 0
	for _, spec := range chaosSpecPool(control) {
		res, err := cs.RunQuery(spec)
		if err != nil {
			t.Fatalf("query %s failed despite clean replicas: %v", spec.Label(), err)
		}
		if got := marshalResult(t, control.Cfg.Method, res); !bytes.Equal(got, want[spec.Key()]) {
			t.Fatalf("query %s: result differs from control", spec.Label())
		}
		failovers += res.Read.Failovers
	}
	if failovers == 0 {
		t.Fatal("no failovers despite fully corrupt primaries")
	}
	if got := cs.Metrics.Counter("cluster_failover_total").Value(); got != int64(failovers) {
		t.Errorf("cluster_failover_total = %d, want %d", got, failovers)
	}
	// The corruption was detected, not silently served.
	detected := uint64(0)
	for _, nodes := range cs.Nodes {
		detected += nodes[0].LFM.Stats().ChecksumFailures
	}
	if detected == 0 {
		t.Error("no checksum failures recorded on corrupt primaries")
	}
}

// TestRottedPrimaryFailsOverAtOnce: a VOLUME page that rotted at rest on
// a shard's primary fails the store's re-read too, so the server calls it
// a node fault. The read then goes to the replica at once — no backoff,
// no retry — and answers with the control's bytes, on the simulated link
// and over loopback TCP alike. Alone, the rotted node's answer is the
// typed fault after one call: it is up, so the shard is not unavailable.
func TestRottedPrimaryFailsOverAtOnce(t *testing.T) {
	control, _ := clusterControl(t)
	spec := QuerySpec{StudyID: control.Studies[0].StudyID, Atlas: "Talairach", FullStudy: true}
	res, err := control.RunQuery(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := marshalResult(t, control.Cfg.Method, res)
	cfg := clusterChaosConfig()
	cfg.Shards = 1
	retry := transport.DefaultRetryPolicy()
	cs, err := NewClusterSystem(cfg, WithRetry(retry))
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	primary := cs.Nodes[0][0]
	rows, err := primary.DB.Exec(fmt.Sprintf(`select wv.data from warpedVolume wv where wv.studyId = %d`, spec.StudyID))
	if err != nil || len(rows.Rows) != 1 {
		t.Fatalf("the study's VOLUME: %v, %v", rows, err)
	}
	if err := primary.LFM.Corrupt(rows.Rows[0][0].L, 100, 0x10); err != nil {
		t.Fatal(err)
	}

	// The primary and the replica served over loopback, for the TCP leg.
	var socks []transport.Transport
	for _, n := range cs.Nodes[0] {
		srv := transport.NewServer(n.Server, transport.ServerConfig{Addr: "127.0.0.1:0"})
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		tcp := transport.DialTCP(srv.Addr().String(), transport.TCPOptions{})
		defer tcp.Close()
		socks = append(socks, tcp)
	}
	overTCP := newClient(cfg.Base, clientOptions{retry: retry.WithDefaults()}, obs.NewRegistry(), cluster.Config{}, [][]transport.Transport{socks})
	for _, leg := range []struct {
		name string
		c    *Client
	}{{"sim", cs.Client}, {"tcp", overTCP}} {
		res, err := leg.c.RunQuery(spec)
		if err != nil {
			t.Fatalf("%s: %v", leg.name, err)
		}
		if !bytes.Equal(marshalResult(t, control.Cfg.Method, res), want) {
			t.Errorf("%s: answer differs from the control", leg.name)
		}
		r := res.Read
		if r.Node != "s0r1" || r.Attempts != 2 || r.Failovers != 1 || r.Retries != 0 || r.BackoffSim != 0 ||
			!strings.Contains(r.LastError, transport.ErrNodeFault.Error()) {
			t.Errorf("%s: read %+v, want the replica after one node fault: 1 failover, no retry, no backoff", leg.name, r)
		}
	}

	alone := NewClient(primary.Transport, cfg.Base, WithRetry(retry))
	calls := primary.Transport.Stats().Calls
	_, err = alone.RunQuery(spec)
	if !errors.Is(err, transport.ErrNodeFault) || errors.Is(err, cluster.ErrShardUnavailable) || transport.RetryableError(err) {
		t.Errorf("alone: %v, want a terminal node fault", err)
	}
	if n := primary.Transport.Stats().Calls - calls; n != 1 || alone.Metrics.Counter("qbism_retries_total").Value() != 0 {
		t.Errorf("alone: %d calls, %d retries; want 1 and 0", n, alone.Metrics.Counter("qbism_retries_total").Value())
	}
}

// TestClusterSlowNodeHedged puts heavy injected latency on every
// primary link: once the latency EWMA crosses HedgeAfter, reads hedge
// to the replica and the fast answer wins — still byte-identical.
func TestClusterSlowNodeHedged(t *testing.T) {
	control, want := clusterControl(t)
	cfg := clusterChaosConfig()
	slow := 50 * time.Millisecond
	cfg.HedgeAfter = 10 * time.Millisecond
	cfg.NodeFaults = func(shard, replica int) (link, device *faultsim.Policy) {
		if replica == 0 {
			return &faultsim.Policy{LatencyProb: 1.0, ExtraLatency: slow}, nil
		}
		return nil, nil
	}
	cs, err := NewClusterSystem(cfg, clusterRetry(4))
	if err != nil {
		t.Fatal(err)
	}
	hedged, won := 0, 0
	for _, spec := range chaosSpecPool(control) {
		res, err := cs.RunQuery(spec)
		if err != nil {
			t.Fatalf("query %s: %v", spec.Label(), err)
		}
		if got := marshalResult(t, control.Cfg.Method, res); !bytes.Equal(got, want[spec.Key()]) {
			t.Fatalf("query %s: hedged result differs from control", spec.Label())
		}
		if res.Read.Hedged {
			hedged++
			if res.Read.HedgeWon {
				won++
				if res.Read.Node[2] != 'r' {
					t.Errorf("query %s: hedge won but served by %s, want the replica", spec.Label(), res.Read.Node)
				}
			}
		}
	}
	if hedged == 0 {
		t.Fatal("no reads hedged despite saturated slow primaries")
	}
	if won == 0 {
		t.Error("no hedge ever won against a 50ms-slower primary")
	}
	if got := cs.Metrics.Counter("cluster_hedged_total").Value(); got != int64(hedged) {
		t.Errorf("cluster_hedged_total = %d, want %d", got, hedged)
	}
}

// TestClusterFlappingNodeBreaker drives a primary through
// fail-fail-fail-recover: the breaker opens at the threshold (traffic
// stops dialing the dead node), then a simulated-time half-open probe
// finds it healthy and closes the breaker, and the primary serves
// again. Deterministic: the flap is a pinned fault schedule, the clock
// is simulated.
func TestClusterFlappingNodeBreaker(t *testing.T) {
	control, want := clusterControl(t)
	study := control.Studies[0]
	cfg := clusterChaosConfig()
	victim := cluster.NewPartitioner(cfg.Shards).Shard(cluster.Key{Patient: study.PatientID, Study: study.StudyID})
	cfg.Breaker = cluster.BreakerConfig{FailureThreshold: 3, Cooldown: 20 * time.Millisecond}
	// The primary drops its first three dials (ops pin one decision per
	// link crossing; a dropped request is one crossing), then is healthy.
	cfg.NodeFaults = func(shard, replica int) (link, device *faultsim.Policy) {
		if shard == victim && replica == 0 {
			return &faultsim.Policy{Schedule: []faultsim.Scheduled{
				{Op: 1, Kind: faultsim.Drop},
				{Op: 2, Kind: faultsim.Drop},
				{Op: 3, Kind: faultsim.Drop},
			}}, nil
		}
		return nil, nil
	}
	cs, err := NewClusterSystem(cfg, clusterRetry(4))
	if err != nil {
		t.Fatal(err)
	}
	spec := QuerySpec{StudyID: study.StudyID, Atlas: "Talairach", FullStudy: true}
	primary := fmt.Sprintf("s%dp", victim)

	var servedBy []string
	sawOpen := false
	for i := 0; i < 40; i++ {
		res, err := cs.RunQuery(spec)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if got := marshalResult(t, control.Cfg.Method, res); !bytes.Equal(got, want[spec.Key()]) {
			t.Fatalf("query %d: result differs from control", i)
		}
		servedBy = append(servedBy, res.Read.Node)
		if cs.Cluster.NodeState(victim, 0) == cluster.BreakerOpen {
			sawOpen = true
		}
		if sawOpen && res.Read.Node == primary {
			break // recovered through the half-open probe
		}
	}
	if !sawOpen {
		t.Fatal("breaker never opened after three consecutive drops")
	}
	last := servedBy[len(servedBy)-1]
	if last != primary {
		t.Fatalf("primary never recovered; reads still served by %s (breaker %v)", last, cs.Cluster.NodeState(victim, 0))
	}
	if got := cs.Cluster.NodeState(victim, 0); got != cluster.BreakerClosed {
		t.Errorf("breaker after recovery = %v, want closed", got)
	}
	// The three pinned drops produced at most three failovers; after the
	// breaker opened, reads went straight to the replica without dialing
	// (or re-failing) the primary.
	if got := cs.Metrics.Counter("cluster_failover_total").Value(); got != 3 {
		t.Errorf("cluster_failover_total = %d, want exactly the 3 injected drops", got)
	}
}

// TestClusterConsistentBandRegionPartial: the population n-way band
// intersection degrades gracefully — with a shard dead, it returns the
// intersection over surviving studies plus the typed partial, and that
// region matches the control's intersection over the same survivors.
func TestClusterConsistentBandRegionPartial(t *testing.T) {
	control, err := New(chaosBaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	var studies []int
	for _, st := range control.Studies {
		studies = append(studies, st.StudyID)
	}
	b := control.BandRegions[studies[0]][0]

	cfg := clusterChaosConfig()
	victim := cluster.NewPartitioner(cfg.Shards).Shard(cluster.Key{Patient: studies[0], Study: studies[0]})
	cfg.NodeFaults = func(shard, replica int) (link, device *faultsim.Policy) {
		if shard == victim {
			return deadLink(), nil
		}
		return nil, nil
	}
	cs, err := NewClusterSystem(cfg, clusterRetry(2))
	if err != nil {
		t.Fatal(err)
	}
	got, partial, err := cs.ConsistentBandRegion(studies, int(b.Lo), int(b.Hi), EncHilbertNaive, 1)
	if err != nil {
		t.Fatalf("ConsistentBandRegion: %v", err)
	}
	if partial == nil {
		t.Fatal("no partial despite a dead shard")
	}
	if ls := partial.LostShards(); len(ls) != 1 || ls[0] != victim {
		t.Fatalf("partial names %v, want [%d]", ls, victim)
	}
	var survivors []int
	for _, id := range studies {
		if sh, _ := cs.Route(id); sh != victim {
			survivors = append(survivors, id)
		}
	}
	if len(survivors) == 0 || len(survivors) == len(studies) {
		t.Fatalf("survivors %v of %v — test is vacuous", survivors, studies)
	}
	wantRegion, err := control.ConsistentBandRegion(survivors, int(b.Lo), int(b.Hi), EncHilbertNaive, 1)
	if err != nil {
		t.Fatal(err)
	}
	gotEnc, err := rencode.Encode(rencode.Naive, got)
	if err != nil {
		t.Fatal(err)
	}
	wantEnc, err := rencode.Encode(rencode.Naive, wantRegion)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotEnc, wantEnc) {
		t.Fatalf("surviving intersection differs from control over the same studies")
	}
}

// TestClusterChaosDeterminism runs an identical degraded workload twice
// (serial, fixed seeds): per-item outcomes, shard/node assignments,
// cluster counters, and the simulated clock must match exactly.
func TestClusterChaosDeterminism(t *testing.T) {
	type outcome struct {
		OK    bool
		Node  string
		Blob  string
		Err   string
		Extra int // failovers + retries
	}
	run := func() ([]outcome, int64, int64, time.Duration) {
		cfg := clusterChaosConfig()
		cfg.Breaker = cluster.BreakerConfig{FailureThreshold: 3, Cooldown: 50 * time.Millisecond}
		cfg.HedgeAfter = 40 * time.Millisecond
		cfg.NodeFaults = func(shard, replica int) (link, device *faultsim.Policy) {
			if replica == 0 {
				// Flaky primaries: drops and latency, seeded per shard.
				return &faultsim.Policy{
					Seed: uint64(1000 + shard), DropProb: 0.25,
					LatencyProb: 0.2, ExtraLatency: 60 * time.Millisecond,
				}, nil
			}
			return &faultsim.Policy{Seed: uint64(2000 + shard), DropProb: 0.05}, nil
		}
		cs, err := NewClusterSystem(cfg, clusterRetry(4))
		if err != nil {
			t.Fatal(err)
		}
		// Build the pool from the global corpus so both runs query
		// every study regardless of sharding.
		var pool []QuerySpec
		for _, st := range cs.Studies {
			pool = append(pool,
				QuerySpec{StudyID: st.StudyID, Atlas: "Talairach", FullStudy: true},
				QuerySpec{StudyID: st.StudyID, Atlas: "Talairach", Structure: "ntal"},
			)
		}
		pick := faultsim.NewRand(77)
		var outs []outcome
		for i := 0; i < 120; i++ {
			spec := pool[pick.Intn(len(pool))]
			res, err := cs.RunQuery(spec)
			o := outcome{OK: err == nil}
			if err == nil {
				o.Node = res.Read.Node
				o.Blob = string(marshalResult(t, cs.Nodes[0][0].Cfg.Method, res))
				o.Extra = res.Read.Failovers + res.Read.Retries
			} else {
				o.Err = err.Error()
			}
			outs = append(outs, o)
		}
		return outs,
			cs.Metrics.Counter("cluster_failover_total").Value(),
			cs.Metrics.Counter("cluster_hedged_total").Value(),
			cs.Cluster.SimNow()
	}
	o1, f1, h1, s1 := run()
	o2, f2, h2, s2 := run()
	if !reflect.DeepEqual(o1, o2) {
		t.Error("per-query outcomes diverged between identical degraded runs")
	}
	if f1 != f2 || h1 != h2 {
		t.Errorf("cluster counters diverged: failover %d vs %d, hedged %d vs %d", f1, f2, h1, h2)
	}
	if s1 != s2 {
		t.Errorf("simulated clock diverged: %v vs %v", s1, s2)
	}
	if f1 == 0 {
		t.Error("no failovers happened — degraded workload appears inert")
	}
}

// TestClusterScatterGatherRace exercises the concurrent scatter-gather
// under -race: parallel workers against a cluster with a dead shard
// must uphold byte-identical-or-typed-partial without data races.
func TestClusterScatterGatherRace(t *testing.T) {
	control, want := clusterControl(t)
	cfg := clusterChaosConfig()
	victim := cluster.NewPartitioner(cfg.Shards).Shard(cluster.Key{Patient: control.Studies[0].PatientID, Study: control.Studies[0].StudyID})
	cfg.NodeFaults = func(shard, replica int) (link, device *faultsim.Policy) {
		if shard == victim {
			return deadLink(), nil
		}
		return nil, nil
	}
	cs, err := NewClusterSystem(cfg, clusterRetry(2))
	if err != nil {
		t.Fatal(err)
	}
	pool := chaosSpecPool(control)
	items, partial, _ := cs.RunQueries(pool, 4)
	for i, item := range items {
		if sh, _ := cs.Route(item.Spec.StudyID); sh == victim {
			if item.Err == nil || !errors.Is(item.Err, cluster.ErrShardUnavailable) {
				t.Fatalf("item %d on dead shard: err = %v, want typed unavailable", i, item.Err)
			}
			continue
		}
		if item.Err != nil {
			t.Fatalf("item %d on healthy shard: %v", i, item.Err)
		}
		if got := marshalResult(t, control.Cfg.Method, item.Res); !bytes.Equal(got, want[item.Spec.Key()]) {
			t.Fatalf("item %d: result differs from control", i)
		}
	}
	if partial == nil || len(partial.Failed) != 1 || partial.Failed[0].Shard != victim {
		t.Fatalf("partial = %v, want exactly shard %d lost", partial, victim)
	}
}
