package transport

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"qbism/internal/costmodel"
	"qbism/internal/faultsim"
	"qbism/internal/obs"
)

// The simulated link driven directly: each round trip crosses twice,
// request and response, and every link fault is counted by the injector
// that fired it.

// serve puts h behind a Sim, whatever the method.
func serve(h func(req []byte) ([]byte, error)) *Sim {
	return NewSim(costmodel.Default1993(), func(_ *obs.Span, _ string, req []byte) ([]byte, error) {
		return h(req)
	})
}

func TestCallRoundTrip(t *testing.T) {
	sim := serve(func(req []byte) ([]byte, error) {
		return append([]byte("re:"), req...), nil
	})
	resp, err := sim.Call(nil, "echo", []byte("hello"))
	if err != nil || string(resp) != "re:hello" {
		t.Fatalf("Call = %q, %v", resp, err)
	}
	if s := sim.Stats(); s.Calls != 1 || s.Errors != 0 || s.BytesOut != 5 || s.BytesIn != 8 {
		t.Errorf("stats = %+v", s)
	}
}

func TestHandlerErrorNotMetered(t *testing.T) {
	m := costmodel.Default1993()
	boom := errors.New("boom")
	sim := serve(func(req []byte) ([]byte, error) { return nil, boom })
	if _, err := sim.Call(nil, "fail", []byte("xx")); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// The request crossed, the response did not.
	if s := sim.Stats(); s.BytesOut != 2 || s.BytesIn != 0 || s.Messages != m.Messages(2) {
		t.Errorf("stats = %+v", s)
	}
}

func TestMessageAccounting(t *testing.T) {
	m := costmodel.Default1993()
	sim := serve(func(req []byte) ([]byte, error) {
		return make([]byte, 10*1024), nil
	})
	sim.Call(nil, "blob", nil)
	want := m.Messages(0) + m.Messages(10*1024)
	if got := sim.Stats().Messages; got != want {
		t.Errorf("messages = %d, want %d", got, want)
	}
}

func TestConcurrentCalls(t *testing.T) {
	m := costmodel.Default1993()
	sim := serve(func(req []byte) ([]byte, error) { return req, nil })
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
	if s := sim.Stats(); s.Calls != 50 || s.Messages != 50*2*m.Messages(1) {
		t.Errorf("stats = %+v, want 50 calls of two one-byte crossings", s)
	}
}

func TestConcurrentCallsUnderFaults(t *testing.T) {
	// Faulty links must stay race-free and never panic; every call
	// either succeeds or fails with a typed error.
	sim := serve(func(req []byte) ([]byte, error) { return req, nil })
	sim.SetFaults(faultsim.New(faultsim.Policy{
		Seed: 11, DropProb: 0.1, TimeoutProb: 0.1, CorruptProb: 0.1, TamperProb: 0.1,
		LatencyProb: 0.1, ExtraLatency: time.Millisecond,
	}))
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := sim.Call(nil, "inc", []byte{1, 2, 3})
			if err != nil && !errors.Is(err, ErrDropped) && !errors.Is(err, ErrLinkTimeout) && !errors.Is(err, ErrFrameCorrupt) {
				t.Errorf("untyped error: %v", err)
			}
		}()
	}
	wg.Wait()
}

func TestScheduledFaultsTyped(t *testing.T) {
	// Ops count payload crossings: op 1 = request of call 1, op 2 =
	// response of call 1 (when the request survived), and so on.
	sim := serve(func(req []byte) ([]byte, error) { return []byte("ok"), nil })
	inj := faultsim.New(faultsim.Policy{Schedule: []faultsim.Scheduled{
		{Op: 1, Kind: faultsim.Drop},    // call 1: request dropped
		{Op: 2, Kind: faultsim.Timeout}, // call 2: request times out
		{Op: 4, Kind: faultsim.Corrupt}, // call 3: response corrupted (op 3 = its request)
	}})
	sim.SetFaults(inj)
	if _, err := sim.Call(nil, "m", []byte("a")); !errors.Is(err, ErrDropped) {
		t.Errorf("call 1: %v", err)
	}
	if _, err := sim.Call(nil, "m", []byte("b")); !errors.Is(err, ErrLinkTimeout) {
		t.Errorf("call 2: %v", err)
	}
	if _, err := sim.Call(nil, "m", []byte("c")); !errors.Is(err, ErrFrameCorrupt) {
		t.Errorf("call 3: %v", err)
	}
	if c := inj.Counts(); len(c) != 3 || c[faultsim.Drop] != 1 || c[faultsim.Timeout] != 1 || c[faultsim.Corrupt] != 1 {
		t.Errorf("fault counts = %v", c)
	}
}

func TestTamperFlipsExactlyOneByte(t *testing.T) {
	var seen []byte
	sim := serve(func(req []byte) ([]byte, error) { seen = append([]byte(nil), req...); return nil, nil })
	inj := faultsim.New(faultsim.Policy{Schedule: []faultsim.Scheduled{{Op: 1, Kind: faultsim.Tamper}}})
	sim.SetFaults(inj)
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
	if n := inj.Count(faultsim.Tamper); n != 1 {
		t.Errorf("tamper count = %d, want 1", n)
	}
}

func TestInjectedLatencyPriced(t *testing.T) {
	m := costmodel.Default1993()
	sim := serve(func(req []byte) ([]byte, error) { return nil, nil })
	inj := faultsim.New(faultsim.Policy{
		ExtraLatency: 500 * time.Millisecond,
		Schedule:     []faultsim.Scheduled{{Op: 1, Kind: faultsim.Latency}},
	})
	sim.SetFaults(inj)
	_, bill, err := sim.Exchange(nil, "m", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := inj.Count(faultsim.Latency); n != 1 {
		t.Errorf("latency count = %d, want 1", n)
	}
	if want := m.NetworkTime(bill.Messages) + 500*time.Millisecond; bill.Latency != want {
		t.Errorf("bill latency %v, want the messages' %v plus the injected 0.5s", bill.Latency, m.NetworkTime(bill.Messages))
	}
}

func TestFaultDeterminism(t *testing.T) {
	// Two links with the same policy seed and the same call sequence
	// must produce identical meters and fault counts.
	type outcome struct {
		stats  Stats
		counts map[faultsim.Kind]uint64
	}
	run := func() outcome {
		sim := serve(func(req []byte) ([]byte, error) { return make([]byte, 2048), nil })
		inj := faultsim.New(faultsim.Policy{
			Seed: 42, DropProb: 0.15, TimeoutProb: 0.1, CorruptProb: 0.1, TamperProb: 0.1,
			LatencyProb: 0.1, ExtraLatency: 3 * time.Millisecond,
		})
		sim.SetFaults(inj)
		for i := 0; i < 400; i++ {
			sim.Call(nil, "m", []byte{byte(i)})
		}
		return outcome{sim.Stats(), inj.Counts()}
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("runs diverged:\n%+v\n%+v", a, b)
	}
	for _, k := range []faultsim.Kind{faultsim.Drop, faultsim.Timeout, faultsim.Corrupt, faultsim.Tamper, faultsim.Latency} {
		if a.counts[k] == 0 {
			t.Errorf("expected every fault kind to fire across 400 calls: %v", a.counts)
			break
		}
	}
}

// TestLinkFaultsReconcileWithInjector: over seeded calls with every link
// fault kind at 10%, what the calls saw is what the injector counted —
// one failed call per drop, timeout and corruption with that typed
// error, one altered payload per tamper, ExtraLatency on the bills per
// latency fault — and the bills sum to the meter.
func TestLinkFaultsReconcileWithInjector(t *testing.T) {
	m := costmodel.Default1993()
	const extra = 2 * time.Millisecond
	pong := []byte("pong, unaltered")
	var want []byte // the request of the call in flight
	tampered := 0   // payloads that arrived altered, either direction
	sim := NewSim(m, func(_ *obs.Span, _ string, req []byte) ([]byte, error) {
		if !bytes.Equal(req, want) {
			tampered++
		}
		return pong, nil
	})
	inj := faultsim.New(faultsim.Policy{
		Seed: 3, DropProb: 0.1, TimeoutProb: 0.1, CorruptProb: 0.1, TamperProb: 0.1,
		LatencyProb: 0.1, ExtraLatency: extra,
	})
	sim.SetFaults(inj)
	failed := map[faultsim.Kind]uint64{}
	var sum Stats
	for i := 0; i < 250; i++ {
		want = bytes.Repeat([]byte{byte(i)}, 1+100*i)
		resp, bill, err := sim.Exchange(nil, "m", want)
		sum = sum.Add(bill)
		switch {
		case errors.Is(err, ErrDropped):
			failed[faultsim.Drop]++
		case errors.Is(err, ErrLinkTimeout):
			failed[faultsim.Timeout]++
		case errors.Is(err, ErrFrameCorrupt):
			failed[faultsim.Corrupt]++
		case err != nil:
			t.Fatalf("call %d: untyped error %v", i, err)
		case !bytes.Equal(resp, pong):
			tampered++
		}
	}
	for _, k := range []faultsim.Kind{faultsim.Drop, faultsim.Timeout, faultsim.Corrupt} {
		if failed[k] != inj.Count(k) {
			t.Errorf("%d calls failed with %s, injector counted %d", failed[k], k, inj.Count(k))
		}
	}
	if n := inj.Count(faultsim.Tamper); uint64(tampered) != n {
		t.Errorf("%d payloads arrived altered, injector counted %d tampers", tampered, n)
	}
	if got, want := sum.Latency-m.NetworkTime(sum.Messages), time.Duration(inj.Count(faultsim.Latency))*extra; got != want {
		t.Errorf("bills carry %v of injected latency, injector counted %v", got, want)
	}
	if got := sim.Stats(); got != sum {
		t.Errorf("Stats %+v, Σ bills %+v", got, sum)
	}
	for _, k := range []faultsim.Kind{faultsim.Drop, faultsim.Timeout, faultsim.Corrupt, faultsim.Tamper, faultsim.Latency} {
		if inj.Count(k) == 0 {
			t.Errorf("expected every fault kind to fire across 250 calls: %v", inj.Counts())
			break
		}
	}
}

// The span model of a round trip over the link: one rpc.<method> span,
// a net.request / server / net.response child per leg, byte and message
// counters on the crossings, and injected faults annotated by name on
// the leg they hit.

func echoSim() *Sim {
	return NewSim(costmodel.Default1993(), func(sp *obs.Span, _ string, req []byte) ([]byte, error) {
		sp.Child("work").End()
		return req, nil
	})
}

func TestCallSpanTree(t *testing.T) {
	sim := echoSim()
	tr := obs.NewTracer()
	root := tr.Start("test")
	payload := []byte("twelve bytes")
	resp, err := sim.Call(root, "echo", payload)
	if err != nil || string(resp) != string(payload) {
		t.Fatalf("echo failed: %q, %v", resp, err)
	}
	root.End()

	rpc := root.Find("rpc.echo")
	if rpc == nil {
		t.Fatalf("no rpc span:\n%s", root.RenderString())
	}
	kids := rpc.Children()
	if len(kids) != 3 {
		t.Fatalf("rpc has %d children, want request/server/response", len(kids))
	}
	for i, want := range []string{"net.request", "server", "net.response"} {
		if kids[i].Name() != want {
			t.Errorf("child %d is %q, want %q", i, kids[i].Name(), want)
		}
	}
	if b, _ := root.Find("net.request").Int("bytes"); b != int64(len(payload)) {
		t.Errorf("request bytes attr = %d, want %d", b, len(payload))
	}
	if m, ok := root.Find("net.response").Int("messages"); !ok || m < 1 {
		t.Errorf("response messages attr = %d, %v", m, ok)
	}
	// The handler's own span nests under "server".
	if root.Find("server").Find("work") == nil {
		t.Error("handler span not nested under server")
	}
	// The untraced path still works and allocates nothing.
	if resp, err := sim.Call(nil, "echo", payload); err != nil || string(resp) != string(payload) {
		t.Fatalf("untraced Call: %q, %v", resp, err)
	}
}

// TestCallSpanFaultAnnotations schedules one fault of each visible kind
// on consecutive crossings and checks the failing leg carries the fault
// name, the rpc span carries the error, and latency records its
// simulated nanoseconds.
func TestCallSpanFaultAnnotations(t *testing.T) {
	cases := []struct {
		kind    faultsim.Kind
		name    string
		wantErr error
	}{
		{faultsim.Drop, "drop", ErrDropped},
		{faultsim.Timeout, "timeout", ErrLinkTimeout},
		{faultsim.Corrupt, "corrupt", ErrFrameCorrupt},
		{faultsim.Latency, "latency", nil},
		{faultsim.Tamper, "tamper", nil},
	}
	for _, tc := range cases {
		sim := echoSim()
		sim.SetFaults(faultsim.New(faultsim.Policy{
			ExtraLatency: 5e6,
			Schedule:     []faultsim.Scheduled{{Op: 1, Kind: tc.kind}},
		}))
		tr := obs.NewTracer()
		root := tr.Start("test")
		_, err := sim.Call(root, "echo", []byte("payload"))
		root.End()
		if tc.wantErr != nil {
			if !errors.Is(err, tc.wantErr) {
				t.Errorf("%s: error %v, want %v", tc.name, err, tc.wantErr)
			}
			if _, ok := root.Find("rpc.echo").Str("error"); !ok {
				t.Errorf("%s: rpc span missing error annotation", tc.name)
			}
		} else if err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		req := root.Find("net.request")
		if got, ok := req.Str("fault"); !ok || got != tc.name {
			t.Errorf("fault attr = %q (ok=%v), want %q\n%s", got, ok, tc.name, root.RenderString())
		}
		if tc.kind == faultsim.Latency {
			if ns, ok := req.Int("latencySimNs"); !ok || ns != 5e6 {
				t.Errorf("latencySimNs = %d (ok=%v), want 5e6", ns, ok)
			}
		}
	}
}
