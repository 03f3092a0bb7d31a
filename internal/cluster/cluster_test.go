package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"qbism/internal/faultsim"
	"qbism/internal/obs"
	"qbism/internal/transport"
)

var errFlaky = fmt.Errorf("flaky node: %w", transport.ErrConn)
var errSemantic = errors.New("unknown study")

// fakeNode answers from a script: each call consumes the next entry.
type fakeNode struct {
	name    string
	resp    []byte
	lat     time.Duration
	failSeq []error // per-call errors; nil entry = success; exhausted = success
	calls   int
}

func (f *fakeNode) Name() string { return f.name }

// Call bills two messages and the node's latency per call, failed or not.
func (f *fakeNode) Call(parent *obs.Span, method string, request []byte) ([]byte, transport.Stats, error) {
	i := f.calls
	f.calls++
	bill := transport.Stats{Calls: 1, Messages: 2, Latency: f.lat}
	if i < len(f.failSeq) && f.failSeq[i] != nil {
		bill.Errors = 1
		return nil, bill, fmt.Errorf("call %d: %w", i+1, f.failSeq[i])
	}
	return f.resp, bill, nil
}

func alwaysFail(err error) []error {
	seq := make([]error, 64)
	for i := range seq {
		seq[i] = err
	}
	return seq
}

func testConfig() Config {
	return Config{Retry: transport.RetryPolicy{MaxAttempts: 4}}
}

func TestReadPrimaryHappyPath(t *testing.T) {
	p := &fakeNode{name: "s0p", resp: []byte("primary")}
	r := &fakeNode{name: "s0r1", resp: []byte("primary")}
	c, err := New(testConfig(), [][]Node{{p, r}})
	if err != nil {
		t.Fatal(err)
	}
	resp, info, err := c.Read(nil, Key{Patient: 1, Study: 1}, "q", []byte("req"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "primary" {
		t.Fatalf("resp = %q", resp)
	}
	if info.Node != "s0p" || info.Attempts != 1 || info.Failovers != 0 {
		t.Fatalf("info = %+v", info)
	}
	if r.calls != 0 {
		t.Fatalf("replica dialed %d times on happy path", r.calls)
	}
}

func TestReadFailsOverToReplica(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig()
	cfg.Metrics = reg
	p := &fakeNode{name: "s0p", failSeq: alwaysFail(errFlaky)}
	r := &fakeNode{name: "s0r1", resp: []byte("rows")}
	c, err := New(cfg, [][]Node{{p, r}})
	if err != nil {
		t.Fatal(err)
	}
	resp, info, err := c.Read(nil, Key{Patient: 1, Study: 1}, "q", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "rows" {
		t.Fatalf("resp = %q", resp)
	}
	if info.Node != "s0r1" {
		t.Fatalf("served by %q, want replica", info.Node)
	}
	if info.Failovers != 1 || info.Attempts != 2 || info.Retries != 1 {
		t.Fatalf("info = %+v", info)
	}
	if got := reg.Counter("cluster_failover_total").Value(); got != 1 {
		t.Fatalf("cluster_failover_total = %d, want 1", got)
	}
}

func TestReadExhaustionIsTypedUnavailable(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig()
	cfg.Metrics = reg
	p := &fakeNode{name: "s0p", failSeq: alwaysFail(errFlaky)}
	r := &fakeNode{name: "s0r1", failSeq: alwaysFail(errFlaky)}
	c, err := New(cfg, [][]Node{{p, r}})
	if err != nil {
		t.Fatal(err)
	}
	_, info, err := c.Read(nil, Key{Patient: 2, Study: 2}, "q", nil, nil)
	if err == nil {
		t.Fatal("want error")
	}
	if !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("err = %v, not ErrShardUnavailable", err)
	}
	if !errors.Is(err, errFlaky) {
		t.Fatalf("underlying cause lost from chain: %v", err)
	}
	if info.Attempts != cfg.Retry.MaxAttempts {
		t.Fatalf("attempts = %d, want %d", info.Attempts, cfg.Retry.MaxAttempts)
	}
	if info.BackoffSim != 0 {
		t.Fatalf("backoff %v under a zero BaseBackoff, want none", info.BackoffSim)
	}
	if got := reg.Counter("cluster_shard_unavailable_total").Value(); got != 1 {
		t.Fatalf("cluster_shard_unavailable_total = %d, want 1", got)
	}
}

func TestReadTerminalErrorNoFailover(t *testing.T) {
	p := &fakeNode{name: "s0p", failSeq: alwaysFail(errSemantic)}
	r := &fakeNode{name: "s0r1", resp: []byte("never")}
	c, err := New(testConfig(), [][]Node{{p, r}})
	if err != nil {
		t.Fatal(err)
	}
	_, info, err := c.Read(nil, Key{Patient: 3, Study: 3}, "q", nil, nil)
	if err == nil {
		t.Fatal("want error")
	}
	if errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("semantic error misclassified as unavailable: %v", err)
	}
	if !errors.Is(err, errSemantic) {
		t.Fatalf("cause lost: %v", err)
	}
	if info.Attempts != 1 || r.calls != 0 {
		t.Fatalf("terminal error retried: info=%+v replicaCalls=%d", info, r.calls)
	}
}

func TestReadBreakerSkipsDeadPrimary(t *testing.T) {
	cfg := testConfig()
	cfg.Breaker = BreakerConfig{FailureThreshold: 2, Cooldown: time.Hour}
	p := &fakeNode{name: "s0p", failSeq: alwaysFail(errFlaky)}
	r := &fakeNode{name: "s0r1", resp: []byte("ok")}
	c, err := New(cfg, [][]Node{{p, r}})
	if err != nil {
		t.Fatal(err)
	}
	// Two reads trip the primary's breaker (one failure each).
	for i := 0; i < 2; i++ {
		if _, _, err := c.Read(nil, Key{Patient: 1, Study: i}, "q", nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.NodeState(0, 0); got != BreakerOpen {
		t.Fatalf("primary breaker = %v, want open", got)
	}
	dialed := p.calls
	// Subsequent reads go straight to the replica without dialing the
	// dead primary.
	if _, info, err := c.Read(nil, Key{Patient: 1, Study: 9}, "q", nil, nil); err != nil {
		t.Fatal(err)
	} else if info.Node != "s0r1" || info.Attempts != 1 {
		t.Fatalf("info = %+v", info)
	}
	if p.calls != dialed {
		t.Fatalf("open breaker still dialed primary (%d -> %d)", dialed, p.calls)
	}
}

func TestReadBreakerHalfOpenRecovery(t *testing.T) {
	cfg := testConfig()
	cfg.Breaker = BreakerConfig{FailureThreshold: 1, Cooldown: 5 * time.Millisecond}
	// Primary fails twice then recovers.
	p := &fakeNode{name: "s0p", resp: []byte("ok"), failSeq: []error{errFlaky, errFlaky}}
	r := &fakeNode{name: "s0r1", resp: []byte("ok")}
	c, err := New(cfg, [][]Node{{p, r}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Read(nil, Key{Patient: 1, Study: 1}, "q", nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := c.NodeState(0, 0); got != BreakerOpen {
		t.Fatalf("primary breaker = %v, want open", got)
	}
	// Each read advances the simulated clock by >= 1ms; after the 5ms
	// cooldown the primary gets a half-open probe, which succeeds once
	// its failSeq is exhausted, closing the breaker.
	var served string
	for i := 0; i < 30 && served != "s0p"; i++ {
		_, info, err := c.Read(nil, Key{Patient: 1, Study: 100 + i}, "q", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		served = info.Node
	}
	if served != "s0p" {
		t.Fatalf("primary never recovered; breaker = %v", c.NodeState(0, 0))
	}
	if got := c.NodeState(0, 0); got != BreakerClosed {
		t.Fatalf("breaker after recovery = %v, want closed", got)
	}
}

func TestReadHedgesAgainstSlowNode(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig()
	cfg.Metrics = reg
	cfg.HedgeAfter = 10 * time.Millisecond
	slow := &fakeNode{name: "s0p", resp: []byte("rows"), lat: 50 * time.Millisecond}
	fast := &fakeNode{name: "s0r1", resp: []byte("rows")}
	c, err := New(cfg, [][]Node{{slow, fast}})
	if err != nil {
		t.Fatal(err)
	}
	// First read seeds the slow node's EWMA above the hedge threshold;
	// the second read hedges and the replica wins the latency race.
	if _, info, err := c.Read(nil, Key{Patient: 1, Study: 1}, "q", nil, nil); err != nil {
		t.Fatal(err)
	} else if info.Hedged {
		t.Fatalf("hedged before EWMA had data: %+v", info)
	}
	_, info, err := c.Read(nil, Key{Patient: 1, Study: 2}, "q", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Hedged || !info.HedgeWon {
		t.Fatalf("info = %+v, want hedged win", info)
	}
	if info.Node != "s0r1" {
		t.Fatalf("winner = %q, want fast replica", info.Node)
	}
	if info.LatencySim >= 50*time.Millisecond {
		t.Fatalf("winning latency %v not better than slow node", info.LatencySim)
	}
	if got := reg.Counter("cluster_hedged_total").Value(); got != 1 {
		t.Fatalf("cluster_hedged_total = %d, want 1", got)
	}
}

// TestReadBillsEveryCall: ReadInfo.Net is the sum of every node call's
// bill — the failed attempt before a failover, and the hedge beside the
// call it raced — not only the winner's.
func TestReadBillsEveryCall(t *testing.T) {
	p := &fakeNode{name: "s0p", resp: []byte("rows"), lat: 50 * time.Millisecond, failSeq: []error{errFlaky}}
	r := &fakeNode{name: "s0r1", resp: []byte("rows")}
	cfg := testConfig()
	cfg.HedgeAfter = 10 * time.Millisecond
	c, err := New(cfg, [][]Node{{p, r}})
	if err != nil {
		t.Fatal(err)
	}
	// Read 1: the primary fails, the replica answers.
	_, info, err := c.Read(nil, Key{Patient: 1, Study: 1}, "q", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := (transport.Stats{Calls: 2, Errors: 1, Messages: 4, Latency: 50 * time.Millisecond}); info.Net != want {
		t.Errorf("failover read billed %+v, want %+v", info.Net, want)
	}
	// Read 2 seeds the primary's EWMA (it now answers); read 3 hedges.
	if _, info, err = c.Read(nil, Key{Patient: 1, Study: 2}, "q", nil, nil); err != nil || info.Hedged {
		t.Fatalf("read 2: %+v, %v", info, err)
	}
	if _, info, err = c.Read(nil, Key{Patient: 1, Study: 3}, "q", nil, nil); err != nil || !info.Hedged {
		t.Fatalf("read 3: %+v, %v; want a hedge", info, err)
	}
	if want := (transport.Stats{Calls: 2, Messages: 4, Latency: 50 * time.Millisecond}); info.Net != want {
		t.Errorf("hedged read billed %+v, want both calls' %+v", info.Net, want)
	}
}

// TestReadValidateRefusalFailsOver: a reply validate refuses is its
// node's failure — counted against the node, its breaker charged, the
// read failed over — and a refused hedge never wins.
func TestReadValidateRefusalFailsOver(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := testConfig()
	cfg.Metrics = reg
	cfg.Breaker = BreakerConfig{FailureThreshold: 1, Cooldown: time.Hour}
	p := &fakeNode{name: "s0p", resp: []byte("garbage")}
	r := &fakeNode{name: "s0r1", resp: []byte("rows")}
	c, err := New(cfg, [][]Node{{p, r}})
	if err != nil {
		t.Fatal(err)
	}
	var checked []string
	validate := func(resp []byte) error {
		checked = append(checked, string(resp))
		if string(resp) != "rows" {
			return fmt.Errorf("reply damaged: %w", errFlaky)
		}
		return nil
	}
	resp, info, err := c.Read(nil, Key{Patient: 1, Study: 1}, "q", nil, validate)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "rows" || info.Node != "s0r1" || info.Failovers != 1 {
		t.Fatalf("resp %q, info %+v; want the replica's rows after one failover", resp, info)
	}
	if len(checked) != 2 {
		t.Errorf("validate saw %q, want each reply once", checked)
	}
	if got := reg.Counter("cluster_node_errors_total_s0p").Value(); got != 1 {
		t.Errorf("cluster_node_errors_total_s0p = %d, want 1", got)
	}
	if got := c.NodeState(0, 0); got != BreakerOpen {
		t.Errorf("primary breaker %v after a refused reply, want open", got)
	}

	// A fast replica whose replies are refused loses every hedge.
	slow := &fakeNode{name: "s0p", resp: []byte("rows"), lat: 50 * time.Millisecond}
	bad := &fakeNode{name: "s0r1", resp: []byte("garbage")}
	cfg.HedgeAfter = 10 * time.Millisecond
	cfg.Breaker = BreakerConfig{}
	if c, err = New(cfg, [][]Node{{slow, bad}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, info, err = c.Read(nil, Key{Patient: 1, Study: i}, "q", nil, validate); err != nil {
			t.Fatal(err)
		}
	}
	if !info.Hedged || info.HedgeWon || info.Node != "s0p" {
		t.Errorf("info %+v, want a hedge that lost to the valid reply", info)
	}
}

func TestReadBackoffDeterministic(t *testing.T) {
	run := func() (ReadInfo, time.Duration) {
		cfg := testConfig()
		cfg.Retry = transport.RetryPolicy{MaxAttempts: 4, BaseBackoff: 10 * time.Millisecond, MaxBackoff: time.Second, Seed: 42}
		p := &fakeNode{name: "s0p", failSeq: []error{errFlaky, errFlaky}}
		r := &fakeNode{name: "s0r1", failSeq: []error{errFlaky}, resp: []byte("ok")}
		c, err := New(cfg, [][]Node{{p, r}})
		if err != nil {
			t.Fatal(err)
		}
		_, info, err := c.Read(nil, Key{Patient: 5, Study: 5}, "q", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return info, c.SimNow()
	}
	a, simA := run()
	b, simB := run()
	if a != b {
		t.Fatalf("ReadInfo diverged:\n  %+v\n  %+v", a, b)
	}
	if simA != simB {
		t.Fatalf("simulated clock diverged: %v vs %v", simA, simB)
	}
	if a.BackoffSim <= 0 {
		t.Fatalf("no backoff charged: %+v", a)
	}
}

// The single node is a cluster of one: a shard of one node, its reads
// retried on that node under a transport.RetryPolicy — the shape every
// DX client's fetch has when it talks to one MedicalServer.

// oneNode is a one-shard, one-node cluster retrying per pol.
func oneNode(t *testing.T, n Node, pol transport.RetryPolicy) *Cluster {
	t.Helper()
	c, err := New(Config{Retry: pol}, [][]Node{{n}})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestReadRetryCuresTransientFailures(t *testing.T) {
	n := &fakeNode{name: "s0p", resp: []byte("ok"), failSeq: []error{errFlaky, errFlaky}}
	c := oneNode(t, n, transport.RetryPolicy{MaxAttempts: 5, BaseBackoff: 50 * time.Millisecond, MaxBackoff: time.Second, Seed: 7})
	resp, info, err := c.Read(nil, Key{Study: 1}, "q", []byte("req"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "ok" || info.Node != "s0p" {
		t.Fatalf("resp %q from %q", resp, info.Node)
	}
	if info.Attempts != 3 || info.Retries != 2 || info.Failovers != 0 {
		t.Errorf("info %+v, want 3 attempts / 2 retries / no failover", info)
	}
	if want := (transport.Stats{Calls: 3, Errors: 2, Messages: 6}); info.Net != want {
		t.Errorf("bill %+v, want every attempt's: %+v", info.Net, want)
	}
	if info.BackoffSim <= 0 {
		t.Error("no simulated backoff accumulated")
	}
	if !strings.Contains(info.LastError, errFlaky.Error()) {
		t.Errorf("LastError = %q, want the failed attempt's error to survive the success", info.LastError)
	}
}

func TestReadRetryTerminalFailsFast(t *testing.T) {
	n := &fakeNode{name: "s0p", failSeq: alwaysFail(errSemantic)}
	c := oneNode(t, n, transport.RetryPolicy{MaxAttempts: 5, Seed: 1})
	_, info, err := c.Read(nil, Key{Study: 1}, "q", nil, nil)
	if !errors.Is(err, errSemantic) || errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("got %v, want the terminal cause, not unavailability", err)
	}
	if info.Attempts != 1 || info.Retries != 0 || n.calls != 1 {
		t.Errorf("terminal error retried: %+v, %d calls", info, n.calls)
	}
}

func TestReadRetryExhaustion(t *testing.T) {
	n := &fakeNode{name: "s0p", failSeq: alwaysFail(errFlaky)}
	c := oneNode(t, n, transport.RetryPolicy{MaxAttempts: 3, BaseBackoff: 10 * time.Millisecond, MaxBackoff: time.Second, Seed: 1})
	_, info, err := c.Read(nil, Key{Study: 1}, "q", nil, nil)
	if !errors.Is(err, ErrShardUnavailable) || !errors.Is(err, errFlaky) {
		t.Fatalf("got %v, want typed unavailability wrapping the cause", err)
	}
	if info.Attempts != 3 || info.Retries != 2 {
		t.Errorf("info %+v, want 3 attempts / 2 retries", info)
	}
	if want := (transport.Stats{Calls: 3, Errors: 3, Messages: 6}); info.Net != want {
		t.Errorf("bill %+v on exhaustion, want every attempt's: %+v", info.Net, want)
	}
}

// TestReadRetryValidateFailureRetried: on one node, a reply validate
// refuses is retried exactly like a call failure — the loop the query
// path relies on for replies corrupted past the link's own checks.
func TestReadRetryValidateFailureRetried(t *testing.T) {
	n := &fakeNode{name: "s0p", resp: []byte("ok")}
	c := oneNode(t, n, transport.RetryPolicy{MaxAttempts: 4, BaseBackoff: 10 * time.Millisecond, MaxBackoff: time.Second, Seed: 1})
	checked := 0
	resp, info, err := c.Read(nil, Key{Study: 1}, "q", nil, func([]byte) error {
		checked++
		if checked < 3 {
			return fmt.Errorf("reply damaged: %w", errFlaky)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "ok" || info.Attempts != 3 {
		t.Fatalf("resp %q, info %+v", resp, info)
	}
	// A reply that failed validation still crossed the link.
	if want := (transport.Stats{Calls: 3, Messages: 6}); info.Net != want {
		t.Errorf("bill %+v, want every attempt's: %+v", info.Net, want)
	}
}

// TestReadRetryDeterministicBackoff: the jitter stream is seeded from
// the policy seed and the request, so the same request backs off
// identically, a different request draws different jitter, and the
// waits are the policy's own schedule.
func TestReadRetryDeterministicBackoff(t *testing.T) {
	pol := transport.RetryPolicy{MaxAttempts: 4, BaseBackoff: 50 * time.Millisecond, MaxBackoff: 2 * time.Second, Seed: 9}
	run := func(request string) time.Duration {
		c := oneNode(t, &fakeNode{name: "s0p", failSeq: alwaysFail(errFlaky)}, pol)
		_, info, _ := c.Read(nil, Key{Study: 1}, "q", []byte(request), nil)
		return info.BackoffSim
	}
	if a, b := run("r1"), run("r1"); a != b {
		t.Errorf("same request backed off differently: %v vs %v", a, b)
	}
	if a, b := run("r1"), run("r2"); a == b {
		t.Errorf("different requests drew identical jitter: %v", a)
	}
	rng := faultsim.NewRand(transport.JitterSeed(pol.Seed, "r1"))
	want := pol.Backoff(1, rng) + pol.Backoff(2, rng) + pol.Backoff(3, rng)
	if got := run("r1"); got != want {
		t.Errorf("backoff %v, want the policy schedule %v", got, want)
	}
}

func TestNewRejectsBadTopology(t *testing.T) {
	if _, err := New(Config{}, nil); err == nil {
		t.Fatal("New accepted zero shards")
	}
	if _, err := New(Config{}, [][]Node{{}}); err == nil {
		t.Fatal("New accepted empty shard")
	}
}

func TestReadShardOutOfRange(t *testing.T) {
	c, err := New(testConfig(), [][]Node{{&fakeNode{name: "s0p"}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.ReadShard(nil, 7, Key{}, "q", nil, nil); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
}

// partialCluster is a three-shard cluster for the partial tests, and
// keys routed to the given shards, in order, no two alike.
func partialCluster(t *testing.T, reg *obs.Registry, shards ...int) (*Cluster, []Key) {
	t.Helper()
	cfg := testConfig()
	cfg.Metrics = reg
	c, err := New(cfg, [][]Node{{&fakeNode{name: "s0p"}}, {&fakeNode{name: "s1p"}}, {&fakeNode{name: "s2p"}}})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Key, len(shards))
	next := 1
	for i, sh := range shards {
		for ; c.Partitioner().Shard(Key{next, next}) != sh; next++ {
		}
		keys[i] = Key{next, next}
		next++
	}
	return c, keys
}

func TestBuildPartial(t *testing.T) {
	reg := obs.NewRegistry()
	c, keys := partialCluster(t, reg, 2, 0, 2, 1)
	unavailable := fmt.Errorf("%w: gone", ErrShardUnavailable)
	errs := []error{unavailable, nil, unavailable, errSemantic}
	p := c.BuildPartial(nil, len(keys), func(i int) (Key, error) { return keys[i], errs[i] })
	if p == nil {
		t.Fatal("nil partial")
	}
	if p.TotalShards != 3 {
		t.Fatalf("TotalShards = %d", p.TotalShards)
	}
	if got := p.LostShards(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("LostShards = %v, want [2]", got)
	}
	if p.LostKeys() != 2 {
		t.Fatalf("LostKeys = %d, want 2", p.LostKeys())
	}
	if len(p.Failed[0].Keys) != 2 || p.Failed[0].Keys[0] != keys[0] {
		t.Fatalf("Failed[0].Keys = %v", p.Failed[0].Keys)
	}
	if s := p.String(); s == "complete" {
		t.Fatalf("String() = %q", s)
	}
	if n, lost := reg.Counter("cluster_partial_total").Value(), reg.Counter("cluster_lost_queries_total").Value(); n != 1 || lost != 2 {
		t.Fatalf("cluster_partial_total %d, cluster_lost_queries_total %d; want 1 and 2", n, lost)
	}
}

func TestBuildPartialNilWhenComplete(t *testing.T) {
	reg := obs.NewRegistry()
	c, keys := partialCluster(t, reg, 0)
	if p := c.BuildPartial(nil, 1, func(int) (Key, error) { return keys[0], nil }); p != nil {
		t.Fatalf("partial = %v, want nil", p)
	}
	// Non-unavailable errors are not the partial's business.
	if p := c.BuildPartial(nil, 1, func(int) (Key, error) { return keys[0], errSemantic }); p != nil {
		t.Fatalf("partial = %v, want nil", p)
	}
	if n := reg.Counter("cluster_partial_total").Value(); n != 0 {
		t.Fatalf("cluster_partial_total = %d with nothing lost", n)
	}
	var nilP *PartialResult
	if nilP.String() != "complete" || nilP.LostKeys() != 0 || nilP.LostShards() != nil {
		t.Fatal("nil PartialResult accessors not safe")
	}
}

func TestBuildPartialSortsShards(t *testing.T) {
	unavailable := fmt.Errorf("%w: gone", ErrShardUnavailable)
	c, keys := partialCluster(t, nil, 2, 0, 1)
	p := c.BuildPartial(nil, len(keys), func(int) (Key, error) { return Key{}, nil })
	if p != nil {
		t.Fatalf("partial = %v with nothing lost", p)
	}
	p = c.BuildPartial(nil, len(keys), func(i int) (Key, error) { return keys[i], unavailable })
	if got := p.LostShards(); got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("LostShards = %v, want ascending", got)
	}
}

// TestReadAllocatesNothing: a fault-free Read through a node that
// allocates nothing allocates nothing itself, metrics on or off — each
// node's series are named when the cluster is built, the jitter stream
// is made only for a retry, and span attributes only for a live span.
func TestReadAllocatesNothing(t *testing.T) {
	for _, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
		cfg := testConfig()
		cfg.Metrics = reg
		c, err := New(cfg, [][]Node{{&fakeNode{name: "s0p", resp: []byte("rows")}, &fakeNode{name: "s0r1", resp: []byte("rows")}}})
		if err != nil {
			t.Fatal(err)
		}
		valid := func([]byte) error { return nil }
		got := testing.AllocsPerRun(100, func() {
			if _, _, err := c.Read(nil, Key{Patient: 1, Study: 1}, "q", nil, valid); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("metrics %v: %.0f allocations per fault-free Read, want 0", reg != nil, got)
		}
	}
}
