package transport

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"qbism/internal/costmodel"
	"qbism/internal/faultsim"
	"qbism/internal/netsim"
	"qbism/internal/obs"
)

func echoHandler(sp *obs.Span, method string, request []byte) ([]byte, error) {
	return append([]byte(method+":"), request...), nil
}

func newSimPair(t *testing.T) (*Sim, *netsim.Link, costmodel.Model) {
	t.Helper()
	model := costmodel.Default1993()
	link := netsim.NewLink(model)
	return NewSim(link, model, echoHandler), link, model
}

func TestSimDelegatesToLink(t *testing.T) {
	s, link, model := newSimPair(t)
	request := []byte("xyz")
	resp, bill, err := s.Exchange(nil, "echo", request)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "echo:xyz" {
		t.Fatalf("got %q", resp)
	}
	// The bill splits the link's crossings by direction and prices their
	// messages with the model.
	ls := link.Stats()
	want := Stats{
		Calls:    1,
		Messages: ls.Messages,
		BytesOut: uint64(len(request)),
		BytesIn:  uint64(len(resp)),
		Latency:  model.NetworkTime(ls.Messages) + ls.LatencySim,
	}
	if bill != want {
		t.Errorf("bill %+v, want %+v", bill, want)
	}
	if got := s.Stats(); got != bill {
		t.Errorf("Stats %+v after one call, want its bill %+v", got, bill)
	}
}

// TestSimBillsSumToStats: across successes, a handler error, faulted
// crossings and a closed transport, the bills add up to the cumulative
// meter field by field, and their messages and bytes to the link's.
func TestSimBillsSumToStats(t *testing.T) {
	model := costmodel.Default1993()
	link := netsim.NewLink(model)
	boom := errors.New("boom")
	s := NewSim(link, model, func(_ *obs.Span, method string, req []byte) ([]byte, error) {
		if method == "fail" {
			return nil, boom
		}
		return make([]byte, 3000), nil
	})
	link.SetFaults(faultsim.New(faultsim.Policy{
		ExtraLatency: 7 * time.Millisecond,
		Schedule: []faultsim.Scheduled{
			{Op: 1, Kind: faultsim.Drop},    // call 1: request dropped
			{Op: 3, Kind: faultsim.Latency}, // call 2: response delayed
			{Op: 8, Kind: faultsim.Corrupt}, // call 5: response corrupted (op 4 is call 3's only crossing)
		},
	}))
	var sum Stats
	for i, method := range []string{"ok", "ok", "fail", "ok", "ok"} {
		_, bill, err := s.Exchange(nil, method, make([]byte, 10*i))
		if (err != nil) != (bill.Errors == 1) || bill.Calls != 1 {
			t.Errorf("call %d: bill %+v with error %v", i+1, bill, err)
		}
		sum = sum.Add(bill)
	}
	s.Close()
	_, bill, err := s.Exchange(nil, "ok", []byte("late"))
	if !errors.Is(err, ErrClosed) || bill != (Stats{Calls: 1, Errors: 1}) {
		t.Errorf("closed: bill %+v, err %v; want Calls and Errors only", bill, err)
	}
	sum = sum.Add(bill)
	if got := s.Stats(); got != sum {
		t.Errorf("Stats %+v, Σ bills %+v", got, sum)
	}
	ls := link.Stats()
	if sum.Messages != ls.Messages || sum.BytesOut+sum.BytesIn != ls.Bytes {
		t.Errorf("Σ bills %d messages / %d bytes, link %d / %d", sum.Messages, sum.BytesOut+sum.BytesIn, ls.Messages, ls.Bytes)
	}
	if want := model.NetworkTime(ls.Messages) + 7*time.Millisecond; sum.Latency != want {
		t.Errorf("Σ latency %v, want %v", sum.Latency, want)
	}
	if sum.Errors != 4 || sum.Calls != 6 {
		t.Errorf("Σ bills %d calls / %d errors, want 6 / 4", sum.Calls, sum.Errors)
	}
}

// TestSimCallUntracedAllocatesNothing: with no span to hang them on, a
// round trip over the simulated link names no span — observation off
// costs nothing — so around a handler that allocates nothing a call
// allocates nothing.
func TestSimCallUntracedAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	model := costmodel.Default1993()
	resp := []byte("pong")
	s := NewSim(netsim.NewLink(model), model, func(*obs.Span, string, []byte) ([]byte, error) { return resp, nil })
	req := []byte("ping")
	got := testing.AllocsPerRun(100, func() {
		if _, err := s.Call(nil, "echo", req); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("%.1f allocs per untraced Sim.Call, want 0 — are span names built with tracing off?", got)
	}
}

// TestSimAddsNoSpan: the sim flavor puts nothing above its rpc.<method>
// span — trace-shape tests across the repo assert that exact tree.
func TestSimAddsNoSpan(t *testing.T) {
	s, _, _ := newSimPair(t)
	tracer := obs.NewTracer()
	root := tracer.Start("root")
	if _, err := s.Call(root, "echo", nil); err != nil {
		t.Fatal(err)
	}
	root.End()
	kids := root.Children()
	if len(kids) != 1 || kids[0].Name() != "rpc.echo" {
		names := make([]string, len(kids))
		for i, k := range kids {
			names[i] = k.Name()
		}
		t.Fatalf("root children %v, want exactly [rpc.echo]", names)
	}
}

func TestSimClosedFences(t *testing.T) {
	s, _, _ := newSimPair(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Call(nil, "echo", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after close: %v", err)
	}
}

func TestRetryableErrorClassification(t *testing.T) {
	retryable := []error{
		ErrDial, ErrConn, ErrAdmissionRejected, ErrDraining, ErrRemote,
		ErrFrameTruncated, ErrFrameCorrupt,
		fmt.Errorf("wrapped: %w", ErrConn),
	}
	for _, err := range retryable {
		if !RetryableError(err) {
			t.Errorf("%v should be retryable", err)
		}
	}
	terminal := []error{
		ErrClosed, ErrUnknownMethod, ErrFrameOversize,
		errors.New("unknown study"),
	}
	for _, err := range terminal {
		if RetryableError(err) {
			t.Errorf("%v should be terminal", err)
		}
	}
}

func TestAdmitterTokenBucket(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	a := newAdmitter(AdmissionConfig{Rate: 10, Burst: 3}, clock)

	for i := 0; i < 3; i++ {
		if !a.Allow("c1") {
			t.Fatalf("burst call %d rejected", i)
		}
	}
	if a.Allow("c1") {
		t.Fatal("call past burst admitted")
	}
	// Other clients have their own buckets.
	if !a.Allow("c2") {
		t.Fatal("independent client rejected")
	}
	// 100ms at 10/s refills one token.
	now = now.Add(100 * time.Millisecond)
	if !a.Allow("c1") {
		t.Fatal("refilled token rejected")
	}
	if a.Allow("c1") {
		t.Fatal("second call after single-token refill admitted")
	}
	// Refill caps at Burst however long the idle period.
	now = now.Add(time.Hour)
	admitted := 0
	for a.Allow("c1") {
		admitted++
	}
	if admitted != 3 {
		t.Fatalf("after long idle, %d calls admitted, want Burst=3", admitted)
	}
}

// A daemon meets an unbounded number of client hosts over its life; the
// admitter may remember only the ones still owing tokens.
func TestAdmitterDropsRefilledBuckets(t *testing.T) {
	now := time.Unix(1000, 0)
	a := newAdmitter(AdmissionConfig{Rate: 10, Burst: 3}, func() time.Time { return now })
	for i := 0; i < 10000; i++ {
		if !a.Allow(fmt.Sprintf("host-%d", i)) {
			t.Fatalf("first call of client %d rejected", i)
		}
	}
	// One client spends its whole burst just before everyone else has
	// refilled (Burst/Rate = 300ms).
	now = now.Add(290 * time.Millisecond)
	for a.Allow("busy") {
	}
	now = now.Add(20 * time.Millisecond)
	if !a.Allow("late") {
		t.Fatal("new client rejected")
	}
	a.mu.Lock()
	n := len(a.buckets)
	a.mu.Unlock()
	if n != 2 {
		t.Errorf("%d buckets kept after every idle client refilled, want 2 (busy, late)", n)
	}
	// 20ms at 10/s is a fifth of a token: the sweep did not forgive it.
	if a.Allow("busy") {
		t.Error("a client mid-burst lost its debt to the sweep")
	}
	// A dropped client comes back to a full bucket, as if it had stayed.
	admitted := 0
	for a.Allow("host-0") {
		admitted++
	}
	if admitted != 3 {
		t.Errorf("returning client admitted %d calls, want Burst=3", admitted)
	}
}

func TestAdmitterDisabled(t *testing.T) {
	a := newAdmitter(AdmissionConfig{}, func() time.Time { return time.Unix(0, 0) })
	for i := 0; i < 1000; i++ {
		if !a.Allow("anyone") {
			t.Fatal("disabled admission rejected a call")
		}
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{Calls: 5, Errors: 2, Messages: 10, BytesOut: 100, BytesIn: 200, Retries: 3, Latency: time.Second}
	b := Stats{Calls: 2, Errors: 1, Messages: 4, BytesOut: 40, BytesIn: 80, Retries: 1, Latency: 300 * time.Millisecond}
	d := a.Sub(b)
	want := Stats{Calls: 3, Errors: 1, Messages: 6, BytesOut: 60, BytesIn: 120, Retries: 2, Latency: 700 * time.Millisecond}
	if d != want {
		t.Errorf("Sub = %+v, want %+v", d, want)
	}
}
