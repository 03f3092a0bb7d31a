package transport

import (
	"fmt"
	"sync"
	"sync/atomic"

	"qbism/internal/costmodel"
	"qbism/internal/netsim"
	"qbism/internal/obs"
)

// Sim carries calls to an in-process Handler over a netsim.Link — the
// simulated-remote flavor. The request crosses the link, the handler
// runs, the response crosses back; the link meters each crossing and
// injects seeded faults on it, so the chaos and differential suites
// replay byte for byte (same spans, same counters, same fault draws in
// the same order). An exchange's bill sums its crossings: their
// messages, the request's bytes out and the response's bytes in, and a
// Latency of the messages' network-model time plus any injected latency.
type Sim struct {
	link    *netsim.Link
	model   costmodel.Model
	handler Handler
	closed  atomic.Bool

	mu    sync.Mutex
	stats Stats // guarded by mu
}

// NewSim returns a transport that reaches h across link, with model
// pricing the link's traffic. The caller keeps its own handle on the
// link for fault installation and the raw crossing counters.
func NewSim(link *netsim.Link, model costmodel.Model, h Handler) *Sim {
	return &Sim{link: link, model: model, handler: h}
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
	delivered, req, err := s.link.Cross(rpc, "request", method, request)
	bill.Messages, bill.BytesOut = req.Messages, req.Bytes
	bill.Latency = s.model.NetworkTime(req.Messages) + req.LatencySim
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
	out, rsp, err := s.link.Cross(rpc, "response", method, resp)
	bill.Messages += rsp.Messages
	bill.BytesIn = rsp.Bytes
	bill.Latency += s.model.NetworkTime(rsp.Messages) + rsp.LatencySim
	if err != nil {
		rpc.SetStr("error", err.Error())
	}
	return out, err
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

// Close implements Transport. The link itself has no resources to
// release; closing only fences further calls.
func (s *Sim) Close() error {
	s.closed.Store(true)
	return nil
}

var _ Transport = (*Sim)(nil)
