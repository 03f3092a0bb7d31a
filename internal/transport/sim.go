package transport

import (
	"errors"
	"fmt"
	"sync/atomic"

	"qbism/internal/costmodel"
	"qbism/internal/netsim"
	"qbism/internal/obs"
)

// Sim carries calls over a netsim.Link — the simulated-remote flavor.
// It is a thin veneer: the link keeps metering traffic, injecting
// seeded faults, and building the same "rpc.<method>" span trees it
// always did, so every chaos and differential suite that ran against
// the pre-seam client runs unchanged (same spans, same counters, same
// fault draws in the same order). What the seam adds is uniform
// accounting: Stats prices the link's message meter with the cost
// model, so per-call deltas of Stats.Latency are exactly the
// simulated latency the cluster's linkNode adapter used to compute by
// hand.
type Sim struct {
	link   *netsim.Link
	model  costmodel.Model
	closed atomic.Bool
}

// NewSim wraps a link and the model that prices its traffic.
func NewSim(link *netsim.Link, model costmodel.Model) *Sim {
	return &Sim{link: link, model: model}
}

// Call implements Transport by delegating to the link's traced call
// path. No extra span is introduced: the link's own "rpc.<method>"
// span is the per-call transport span, and keeping the tree identical
// to the pre-seam shape is what lets the trace-accounting tests assert
// exact page sums across the refactor.
func (s *Sim) Call(parent *obs.Span, method string, request []byte) ([]byte, error) {
	if s.closed.Load() {
		return nil, fmt.Errorf("transport: sim %q: %w", method, ErrClosed)
	}
	resp, err := s.link.CallSpan(parent, method, request)
	if errors.Is(err, netsim.ErrNoHandler) {
		// The same typed, terminal refusal a daemon gives over tcp.
		return nil, fmt.Errorf("transport: sim: %w: %q", ErrUnknownMethod, method)
	}
	return resp, err
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

// Link exposes the underlying link for fault installation and the
// raw per-method counters chaos reports read.
func (s *Sim) Link() *netsim.Link { return s.link }

// Close implements Transport. The link itself has no resources to
// release; closing only fences further calls.
func (s *Sim) Close() error {
	s.closed.Store(true)
	return nil
}

var _ Transport = (*Sim)(nil)
