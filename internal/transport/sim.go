package transport

import (
	"fmt"
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
// the same order). Stats prices the link's message meter with the cost
// model: a per-call delta of Stats.Latency is that call's simulated
// network time.
type Sim struct {
	link    *netsim.Link
	model   costmodel.Model
	handler Handler
	closed  atomic.Bool
}

// NewSim returns a transport that reaches h across link, with model
// pricing the link's traffic. The caller keeps its own handle on the
// link for fault installation and the raw per-method counters.
func NewSim(link *netsim.Link, model costmodel.Model, h Handler) *Sim {
	return &Sim{link: link, model: model, handler: h}
}

// Call implements Transport. The round trip is one "rpc.<method>" span
// under parent with a child per leg — "net.request", "server" (the
// handler's work nests under it), "net.response" — and nothing above
// it: the trace-accounting tests assert exact page sums over this tree.
// A handler error is returned as the handler gave it, so an unknown
// method is the same typed refusal it is over tcp.
func (s *Sim) Call(parent *obs.Span, method string, request []byte) ([]byte, error) {
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
	delivered, err := s.link.Cross(rpc, "request", method, request)
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
	out, err := s.link.Cross(rpc, "response", method, resp)
	if err != nil {
		rpc.SetStr("error", err.Error())
	}
	return out, err
}

// NoteRetry forwards client retries to the link's meter, so the chaos
// suites' "link retries == summed query retries" reconciliation holds
// with the retry loop living at the seam.
func (s *Sim) NoteRetry() { s.link.NoteRetry() }

// Stats implements Transport: the link's cumulative counters mapped
// into the seam's shape, with Latency priced by the cost model.
// NetworkTime is linear in messages, so a delta of this cumulative
// figure equals pricing the delta's messages directly.
func (s *Sim) Stats() Stats {
	ls := s.link.Stats()
	return Stats{
		Calls:    ls.Calls,
		Errors:   ls.Drops + ls.Timeouts + ls.Corruptions,
		Messages: ls.Messages,
		BytesOut: ls.Bytes, // the link meters both directions into one figure
		Retries:  ls.Retries,
		Latency:  s.model.NetworkTime(ls.Messages) + ls.LatencySim,
	}
}

// Close implements Transport. The link itself has no resources to
// release; closing only fences further calls.
func (s *Sim) Close() error {
	s.closed.Store(true)
	return nil
}

var _ Transport = (*Sim)(nil)
