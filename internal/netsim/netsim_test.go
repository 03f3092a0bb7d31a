package netsim_test

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"qbism/internal/costmodel"
	"qbism/internal/faultsim"
	"qbism/internal/netsim"
	"qbism/internal/obs"
	"qbism/internal/transport"
)

// A link only carries crossings; a round trip — request crosses, handler
// runs, response crosses — is what its one consumer, transport.Sim, makes
// of two of them. These tests drive the link through it (hence the
// external test package: transport imports netsim).

// serve puts h behind l, whatever the method.
func serve(l *netsim.Link, h func(req []byte) ([]byte, error)) *transport.Sim {
	return transport.NewSim(l, costmodel.Default1993(), func(_ *obs.Span, _ string, req []byte) ([]byte, error) {
		return h(req)
	})
}

func TestCallRoundTrip(t *testing.T) {
	l := netsim.NewLink(costmodel.Default1993())
	sim := serve(l, func(req []byte) ([]byte, error) {
		return append([]byte("re:"), req...), nil
	})
	resp, err := sim.Call(nil, "echo", []byte("hello"))
	if err != nil || string(resp) != "re:hello" {
		t.Fatalf("Call = %q, %v", resp, err)
	}
	s := l.Stats()
	if s.Calls != 2 || s.Bytes != 5+8 {
		t.Errorf("stats = %+v", s)
	}
}

func TestHandlerErrorNotMetered(t *testing.T) {
	l := netsim.NewLink(costmodel.Default1993())
	boom := errors.New("boom")
	sim := serve(l, func(req []byte) ([]byte, error) { return nil, boom })
	if _, err := sim.Call(nil, "fail", []byte("xx")); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	s := l.Stats()
	if s.Calls != 1 { // request crossed, response did not
		t.Errorf("stats = %+v", s)
	}
}

func TestMessageAccounting(t *testing.T) {
	m := costmodel.Default1993()
	l := netsim.NewLink(m)
	sim := serve(l, func(req []byte) ([]byte, error) {
		return make([]byte, 10*1024), nil
	})
	sim.Call(nil, "blob", nil)
	s := l.Stats()
	want := m.Messages(0) + m.Messages(10*1024)
	if s.Messages != want {
		t.Errorf("messages = %d, want %d", s.Messages, want)
	}
}

// TestCrossBillsSumToStats: each crossing returns its own cost — one
// call, its messages and bytes, the fault it drew, its injected latency
// — and the link's meter is the sum of those costs, whatever faults
// fired.
func TestCrossBillsSumToStats(t *testing.T) {
	m := costmodel.Default1993()
	l := netsim.NewLink(m)
	l.SetFaults(faultsim.New(faultsim.Policy{
		Seed: 3, DropProb: 0.1, TimeoutProb: 0.1, CorruptProb: 0.1, TamperProb: 0.1,
		LatencyProb: 0.1, ExtraLatency: 2 * time.Millisecond,
	}))
	var sum netsim.Stats
	for i := 0; i < 200; i++ {
		payload := make([]byte, 100*i)
		_, c, err := l.Cross(nil, "request", "m", payload)
		if c.Calls != 1 || c.Bytes != uint64(len(payload)) || c.Messages != m.Messages(uint64(len(payload))) {
			t.Fatalf("crossing %d cost %+v", i, c)
		}
		if faults := c.Drops + c.Timeouts + c.Corruptions; (err != nil) != (faults == 1) {
			t.Fatalf("crossing %d: cost %+v with error %v", i, c, err)
		}
		sum.Calls += c.Calls
		sum.Messages += c.Messages
		sum.Bytes += c.Bytes
		sum.Drops += c.Drops
		sum.Timeouts += c.Timeouts
		sum.Corruptions += c.Corruptions
		sum.Tampers += c.Tampers
		sum.Latencies += c.Latencies
		sum.LatencySim += c.LatencySim
	}
	if got := l.Stats(); got != sum {
		t.Errorf("link meter %+v, Σ crossing costs %+v", got, sum)
	}
	if sum.Drops == 0 || sum.Tampers == 0 || sum.Latencies == 0 {
		t.Errorf("expected every fault kind to fire across 200 crossings: %+v", sum)
	}
}

func TestConcurrentCalls(t *testing.T) {
	l := netsim.NewLink(costmodel.Default1993())
	sim := serve(l, func(req []byte) ([]byte, error) { return req, nil })
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sim.Call(nil, "inc", []byte{1}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if s := l.Stats(); s.Calls != 100 {
		t.Errorf("calls = %d, want 100", s.Calls)
	}
}

func TestConcurrentCallsUnderFaults(t *testing.T) {
	// Faulty links must stay race-free and never panic; every call
	// either succeeds or fails with a typed error.
	l := netsim.NewLink(costmodel.Default1993())
	sim := serve(l, func(req []byte) ([]byte, error) { return req, nil })
	l.SetFaults(faultsim.New(faultsim.Policy{
		Seed: 11, DropProb: 0.1, TimeoutProb: 0.1, CorruptProb: 0.1, TamperProb: 0.1,
		LatencyProb: 0.1, ExtraLatency: time.Millisecond,
	}))
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := sim.Call(nil, "inc", []byte{1, 2, 3})
			if err != nil && !errors.Is(err, netsim.ErrDropped) && !errors.Is(err, netsim.ErrLinkTimeout) && !errors.Is(err, netsim.ErrCorrupt) {
				t.Errorf("untyped error: %v", err)
			}
		}()
	}
	wg.Wait()
}

func TestScheduledFaultsTyped(t *testing.T) {
	// Ops count payload crossings: op 1 = request of call 1, op 2 =
	// response of call 1 (when the request survived), and so on.
	l := netsim.NewLink(costmodel.Default1993())
	sim := serve(l, func(req []byte) ([]byte, error) { return []byte("ok"), nil })
	l.SetFaults(faultsim.New(faultsim.Policy{Schedule: []faultsim.Scheduled{
		{Op: 1, Kind: faultsim.Drop},    // call 1: request dropped
		{Op: 2, Kind: faultsim.Timeout}, // call 2: request times out
		{Op: 4, Kind: faultsim.Corrupt}, // call 3: response corrupted (op 3 = its request)
	}}))
	if _, err := sim.Call(nil, "m", []byte("a")); !errors.Is(err, netsim.ErrDropped) {
		t.Errorf("call 1: %v", err)
	}
	if _, err := sim.Call(nil, "m", []byte("b")); !errors.Is(err, netsim.ErrLinkTimeout) {
		t.Errorf("call 2: %v", err)
	}
	if _, err := sim.Call(nil, "m", []byte("c")); !errors.Is(err, netsim.ErrCorrupt) {
		t.Errorf("call 3: %v", err)
	}
	s := l.Stats()
	if s.Drops != 1 || s.Timeouts != 1 || s.Corruptions != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestTamperFlipsExactlyOneByte(t *testing.T) {
	l := netsim.NewLink(costmodel.Default1993())
	var seen []byte
	sim := serve(l, func(req []byte) ([]byte, error) { seen = append([]byte(nil), req...); return nil, nil })
	l.SetFaults(faultsim.New(faultsim.Policy{Schedule: []faultsim.Scheduled{{Op: 1, Kind: faultsim.Tamper}}}))
	orig := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	sent := append([]byte(nil), orig...)
	if _, err := sim.Call(nil, "m", sent); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sent, orig) {
		t.Error("caller's buffer was mutated")
	}
	diff := 0
	for i := range orig {
		if seen[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("%d bytes differ, want exactly 1 (delivered %v)", diff, seen)
	}
	if l.Stats().Tampers != 1 {
		t.Errorf("tamper counters = %+v", l.Stats())
	}
}

func TestInjectedLatencyPriced(t *testing.T) {
	m := costmodel.Default1993()
	l := netsim.NewLink(m)
	sim := serve(l, func(req []byte) ([]byte, error) { return nil, nil })
	l.SetFaults(faultsim.New(faultsim.Policy{
		ExtraLatency: 500 * time.Millisecond,
		Schedule:     []faultsim.Scheduled{{Op: 1, Kind: faultsim.Latency}},
	}))
	_, bill, err := sim.Exchange(nil, "m", nil)
	if err != nil {
		t.Fatal(err)
	}
	s := l.Stats()
	if s.Latencies != 1 || s.LatencySim != 500*time.Millisecond {
		t.Errorf("latency stats = %+v", s)
	}
	if want := m.NetworkTime(s.Messages) + 500*time.Millisecond; bill.Latency != want {
		t.Errorf("bill latency %v, want the messages' %v plus the injected 0.5s", bill.Latency, m.NetworkTime(s.Messages))
	}
}

func TestFaultDeterminism(t *testing.T) {
	// Two links with the same policy seed and the same call sequence
	// must produce identical stats.
	run := func() netsim.Stats {
		l := netsim.NewLink(costmodel.Default1993())
		sim := serve(l, func(req []byte) ([]byte, error) { return make([]byte, 2048), nil })
		l.SetFaults(faultsim.New(faultsim.Policy{
			Seed: 42, DropProb: 0.15, TimeoutProb: 0.1, CorruptProb: 0.1, TamperProb: 0.1,
			LatencyProb: 0.1, ExtraLatency: 3 * time.Millisecond,
		}))
		for i := 0; i < 400; i++ {
			sim.Call(nil, "m", []byte{byte(i)})
		}
		return l.Stats()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("stats diverged:\n%+v\n%+v", a, b)
	}
	if a.Drops == 0 || a.Timeouts == 0 || a.Corruptions == 0 || a.Tampers == 0 || a.Latencies == 0 {
		t.Errorf("expected every fault kind to fire across 400 calls: %+v", a)
	}
}
