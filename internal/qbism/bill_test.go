package qbism

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"qbism/internal/cluster"
	"qbism/internal/costmodel"
	"qbism/internal/faultsim"
	"qbism/internal/obs"
	"qbism/internal/transport"
)

// The client side of one bill per call: every exchange returns its own
// cost, so a query's network column is exact however many queries share
// a transport, and a cluster read's is the sum of its node calls.

// TestNetBillExactUnderConcurrency runs Table 3's six specs over every
// study, four times over, through RunQueries at eight workers: each
// item's NetMessages and network latency (Read.Net.Latency, Table 3's
// net column) must equal the same spec run alone, and
// the items must sum to what the transport's meter counted for the batch.
func TestNetBillExactUnderConcurrency(t *testing.T) {
	for _, trace := range []bool{false, true} {
		name := "untraced"
		if trace {
			name = "traced"
		}
		t.Run(name, func(t *testing.T) {
			sys, err := New(Config{Bits: 5, NumPET: 2, NumMRI: 1, Seed: 11, SmallStudies: true, Trace: trace})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			var specs []QuerySpec
			for _, st := range sys.Studies {
				for _, spec := range sys.Table3Queries() {
					spec.StudyID = st.StudyID
					specs = append(specs, spec)
				}
			}
			serial := make([]*QueryResult, len(specs))
			for i, spec := range specs {
				res, err := sys.RunQuery(spec)
				if err != nil {
					t.Fatalf("%s alone: %v", spec.Label(), err)
				}
				serial[i] = res
			}

			const repeats = 4
			var batch []QuerySpec
			for r := 0; r < repeats; r++ {
				batch = append(batch, specs...)
			}
			before := sys.Transport.Stats()
			items := sys.RunQueries(batch, 8)
			meter := sys.Transport.Stats().Sub(before)

			var messages uint64
			for i, item := range items {
				if item.Err != nil {
					t.Fatalf("%s: %v", item.Spec.Label(), item.Err)
				}
				got, want := item.Res, serial[i%len(specs)]
				messages += got.Timing.NetMessages
				if got.Timing.NetMessages != want.Timing.NetMessages || got.Read.Net.Latency != want.Read.Net.Latency {
					t.Errorf("%s: billed %d messages / %v under 8 workers, %d / %v alone",
						item.Spec.Label(), got.Timing.NetMessages, got.Read.Net.Latency, want.Timing.NetMessages, want.Read.Net.Latency)
				}
			}
			if messages != meter.Messages {
				t.Errorf("items bill %d messages, the transport counted %d", messages, meter.Messages)
			}
			if messages == 0 {
				t.Fatal("batch sent zero messages — the check is vacuous")
			}
		})
	}
}

// TestClusterNodeCallsConcurrently: two calls through one transportNode
// are both inside the node's handler before either returns — nothing
// serializes a node's calls. The handler gives up after a while, so a
// serialized node fails the test rather than hanging it.
func TestClusterNodeCallsConcurrently(t *testing.T) {
	var inside atomic.Int32
	both := make(chan struct{})
	h := func(*obs.Span, string, []byte) ([]byte, error) {
		if inside.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
			return []byte("ok"), nil
		case <-time.After(5 * time.Second):
			return nil, errors.New("the other call never entered the handler")
		}
	}
	n := &transportNode{name: "s0p", t: transport.NewSim(costmodel.Default1993(), h)}
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, _, err := n.Call(nil, QueryMethod, []byte("req"))
			errs <- err
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestClusterNetBillReconcilesUnderFaults runs a seeded chaos batch on a
// 2×2 cluster with hedging on — flaky, slow and tampering primaries,
// clean replicas, so every read ends served — at four workers. Each
// query's NetMessages counts every message its node calls put on a
// link, failed attempts, failovers and hedges included, so the items
// sum to the node transports' meters.
func TestClusterNetBillReconcilesUnderFaults(t *testing.T) {
	cfg := clusterChaosConfig()
	cfg.Breaker = cluster.BreakerConfig{FailureThreshold: 3, Cooldown: 50 * time.Millisecond}
	cfg.HedgeAfter = 40 * time.Millisecond
	cfg.NodeFaults = func(shard, replica int) (link, device *faultsim.Policy) {
		if replica == 0 {
			return &faultsim.Policy{
				Seed: uint64(1000 + shard), DropProb: 0.15, TamperProb: 0.05,
				LatencyProb: 0.2, ExtraLatency: 60 * time.Millisecond,
			}, nil
		}
		return nil, nil
	}
	cs, err := NewClusterSystem(cfg, clusterRetry(4))
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	var pool []QuerySpec
	for _, st := range cs.Studies {
		pool = append(pool,
			QuerySpec{StudyID: st.StudyID, Atlas: "Talairach", FullStudy: true},
			QuerySpec{StudyID: st.StudyID, Atlas: "Talairach", Structure: "ntal"},
		)
	}
	var batch []QuerySpec
	pick := faultsim.NewRand(77)
	for i := 0; i < 120; i++ {
		batch = append(batch, pool[pick.Intn(len(pool))])
	}

	items, partial := cs.RunQueries(batch, 4)
	if partial != nil {
		t.Fatalf("clean replicas, yet a partial batch: %v", partial)
	}
	var billed uint64
	failovers, hedges := 0, 0
	for _, item := range items {
		if item.Err != nil {
			t.Fatalf("%s: %v", item.Spec.Label(), item.Err)
		}
		billed += item.Res.Timing.NetMessages
		if item.Res.Timing.NetMessages != item.Res.Read.Net.Messages {
			t.Errorf("%s: NetMessages %d, the read's bill %d", item.Spec.Label(), item.Res.Timing.NetMessages, item.Res.Read.Net.Messages)
		}
		failovers += item.Res.Read.Failovers
		if item.Res.Read.Hedged {
			hedges++
		}
	}
	var metered uint64
	for _, replicas := range cs.Nodes {
		for _, node := range replicas {
			metered += node.Transport.Stats().Messages
		}
	}
	if billed != metered {
		t.Errorf("items bill %d messages, the node transports counted %d", billed, metered)
	}
	if failovers == 0 || hedges == 0 {
		t.Errorf("%d failovers, %d hedges — the faults appear inert", failovers, hedges)
	}
}
