package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"qbism/internal/costmodel"
	"qbism/internal/faultsim"
	"qbism/internal/obs"
)

// Typed link failures of the simulated wire, both retryable; a detected
// corruption is ErrFrameCorrupt, as on a socket.
var (
	// ErrDropped means the message was lost in flight.
	ErrDropped = errors.New("transport: message dropped")
	// ErrLinkTimeout means the call exceeded its deadline.
	ErrLinkTimeout = errors.New("transport: call timed out")
)

// Sim carries calls to an in-process Handler over a simulated link —
// the RPC between the MedicalServer and DX of Figures 7–8. The request
// crosses the link, the handler runs, the response crosses back. Each
// crossing is counted in messages and bytes by the cost model, and an
// optional faultsim.Injector makes it drop, time out, gain latency, or
// get corrupted — detectably (ErrFrameCorrupt) or silently (Tamper flips a
// byte that only an end-to-end integrity check can see). Fault draws
// are seeded, so the chaos and differential suites replay byte for byte
// (same spans, same counters, same draws in the same order); the
// injector counts the faults it fired.
//
// An exchange's bill sums its crossings: their messages, the request's
// bytes out and the response's bytes in — billed even when lost, since
// they were sent — and a Latency of the messages' network-model time
// plus any injected latency.
type Sim struct {
	model   costmodel.Model
	handler Handler
	closed  atomic.Bool

	mu     sync.Mutex
	stats  Stats              // guarded by mu
	faults *faultsim.Injector // guarded by mu
}

// NewSim returns a transport that reaches h over a simulated link
// whose traffic model prices.
func NewSim(model costmodel.Model, h Handler) *Sim {
	return &Sim{model: model, handler: h}
}

// SetFaults installs (or, with nil, removes) the link's fault injector.
// The Sim serializes access to it; read its counts once the calls it
// decided have returned.
func (s *Sim) SetFaults(in *faultsim.Injector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults = in
}

// Exchange implements Transport. The round trip is one "rpc.<method>"
// span under parent with a child per leg — "net.request", "server" (the
// handler's work nests under it), "net.response" — and nothing above
// it: the trace-accounting tests assert exact page sums over this tree.
// A handler error is returned as the handler gave it, so an unknown
// method is the same typed refusal it is over tcp.
func (s *Sim) Exchange(parent *obs.Span, method string, request []byte) ([]byte, Stats, error) {
	bill := Stats{Calls: 1}
	resp, err := s.exchange(parent, method, request, &bill)
	if err != nil {
		bill.Errors = 1
	}
	s.mu.Lock()
	s.stats = s.stats.Add(bill)
	s.mu.Unlock()
	return resp, bill, err
}

// exchange makes the round trip, adding each crossing to bill.
func (s *Sim) exchange(parent *obs.Span, method string, request []byte, bill *Stats) ([]byte, error) {
	if s.closed.Load() {
		return nil, fmt.Errorf("transport: sim %q: %w", method, ErrClosed)
	}
	// The span names are built only under a live span: untraced, a call
	// allocates nothing of its own.
	var rpc *obs.Span
	if parent != nil {
		rpc = parent.Child("rpc." + method)
	}
	defer rpc.End()
	delivered, err := s.cross(rpc, "request", method, request, bill)
	bill.BytesOut = uint64(len(request))
	if err != nil {
		rpc.SetStr("error", err.Error())
		return nil, err
	}
	srv := rpc.Child("server")
	resp, err := s.handler(srv, method, delivered)
	srv.End()
	if err != nil {
		rpc.SetStr("error", err.Error())
		return nil, err
	}
	out, err := s.cross(rpc, "response", method, resp, bill)
	bill.BytesIn = uint64(len(resp))
	if err != nil {
		rpc.SetStr("error", err.Error())
	}
	return out, err
}

// cross moves one payload of a method's call over the link in direction
// dir ("request" or "response"): it draws one fault decision, adds the
// crossing's messages and network time (plus any injected latency) to
// bill, and either delivers the (possibly tampered) payload or fails
// with a typed error. The crossing is traced as a "net.<dir>" span
// under parent (nil = untraced) carrying bytes, messages and any
// injected fault.
func (s *Sim) cross(parent *obs.Span, dir, method string, payload []byte, bill *Stats) ([]byte, error) {
	var sp *obs.Span // named only under a live span, so an untraced crossing allocates nothing
	if parent != nil {
		sp = parent.Child("net." + dir)
	}
	defer sp.End()
	msgs := s.model.Messages(uint64(len(payload)))
	bill.Messages += msgs
	bill.Latency += s.model.NetworkTime(msgs)
	sp.SetInt("bytes", int64(len(payload)))
	sp.SetInt("messages", int64(msgs))
	s.mu.Lock()
	defer s.mu.Unlock()
	fault := s.faults.LinkFault()
	if fault == faultsim.None {
		return payload, nil
	}
	sp.SetStr("fault", fault.String())
	switch fault {
	case faultsim.Drop:
		return nil, fmt.Errorf("transport: %s: %w", method, ErrDropped)
	case faultsim.Timeout:
		return nil, fmt.Errorf("transport: %s: %w", method, ErrLinkTimeout)
	case faultsim.Corrupt:
		return nil, fmt.Errorf("transport: %s: %w", method, ErrFrameCorrupt)
	case faultsim.Tamper:
		if len(payload) > 0 {
			tampered := make([]byte, len(payload))
			copy(tampered, payload)
			tampered[s.faults.Intn(len(tampered))] ^= 1 << s.faults.Intn(8)
			payload = tampered
		}
	case faultsim.Latency:
		extra := s.faults.Policy().ExtraLatency
		bill.Latency += extra
		sp.SetInt("latencySimNs", int64(extra))
	}
	return payload, nil
}

// Call implements Transport: Exchange without the bill.
func (s *Sim) Call(parent *obs.Span, method string, request []byte) ([]byte, error) {
	resp, _, err := s.Exchange(parent, method, request)
	return resp, err
}

// Stats implements Transport: the sum of every bill issued. NetworkTime
// is linear in messages, so its Latency is also the model's price of all
// the messages plus all injected latency.
func (s *Sim) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close implements Transport. The link has no resources to release;
// closing only fences further calls.
func (s *Sim) Close() error {
	s.closed.Store(true)
	return nil
}

var _ Transport = (*Sim)(nil)
