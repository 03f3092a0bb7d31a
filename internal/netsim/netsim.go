// Package netsim simulates the RPC link between the Starburst/
// MedicalServer process and the DX executive (Figure 7/8 of the paper).
// It has one job: a payload crosses the link and is counted — messages
// and bytes, by the cost model's message size — and each crossing
// reports that cost to its caller. Who is called between a request's
// crossing and its response's, and pricing the round trip into the
// paper's "network" column (message count and answer time), is
// transport.Sim's business.
//
// Unlike the paper's testbed, the link does not have to be perfect: an
// optional faultsim.Injector makes payload crossings drop, time out,
// gain latency, or get corrupted — detectably (the link-layer checksum
// catches it, Cross fails with ErrCorrupt) or silently (Tamper flips a
// byte that only an end-to-end integrity check can see).
package netsim

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"qbism/internal/costmodel"
	"qbism/internal/faultsim"
	"qbism/internal/obs"
)

// Typed link failures. Callers classify these as retryable.
var (
	// ErrDropped means the message was lost in flight.
	ErrDropped = errors.New("netsim: message dropped")
	// ErrLinkTimeout means the call exceeded its deadline.
	ErrLinkTimeout = errors.New("netsim: call timed out")
	// ErrCorrupt means the payload was damaged in flight and the link
	// layer detected it.
	ErrCorrupt = errors.New("netsim: payload corrupted in flight")
)

// Stats is link traffic and fault accounting: a crossing's cost as Cross
// returns it, or the link's cumulative meter — the sum of every
// crossing's cost.
type Stats struct {
	// Calls counts payload crossings; Messages and Bytes their traffic.
	Calls    uint64
	Messages uint64
	Bytes    uint64

	// Fault counters (injected by the link's fault policy).
	Drops       uint64
	Timeouts    uint64
	Corruptions uint64
	Tampers     uint64
	Latencies   uint64
	// LatencySim is the total injected simulated delay.
	LatencySim time.Duration
}

// add folds a crossing's cost into s.
func (s *Stats) add(o Stats) {
	s.Calls += o.Calls
	s.Messages += o.Messages
	s.Bytes += o.Bytes
	s.Drops += o.Drops
	s.Timeouts += o.Timeouts
	s.Corruptions += o.Corruptions
	s.Tampers += o.Tampers
	s.Latencies += o.Latencies
	s.LatencySim += o.LatencySim
}

// Link is a simulated bidirectional RPC channel. It is safe for
// concurrent use.
type Link struct {
	model costmodel.Model

	mu     sync.Mutex
	stats  Stats              // guarded by mu
	faults *faultsim.Injector // guarded by mu
}

// NewLink creates a link that counts messages by the given model.
func NewLink(model costmodel.Model) *Link {
	return &Link{model: model}
}

// SetFaults installs (or, with nil, removes) the link's fault injector.
// The link serializes access to it.
func (l *Link) SetFaults(in *faultsim.Injector) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.faults = in
}

// Cross moves one payload of a method's call over the link in direction
// dir ("request" or "response"): it draws a fault decision, meters the
// traffic, and either delivers the (possibly tampered) payload or fails
// with a typed error. It returns what the crossing cost — one call, its
// messages and bytes, the fault it drew and any injected latency — which
// it has also added to the link's meter. The payload is billed even when
// it is lost: the bytes were sent. The crossing is traced as a
// "net.<dir>" span under parent (nil = untraced) carrying bytes, messages
// and any injected fault.
func (l *Link) Cross(parent *obs.Span, dir, method string, payload []byte) ([]byte, Stats, error) {
	var sp *obs.Span // named only under a live span, so an untraced crossing allocates nothing
	if parent != nil {
		sp = parent.Child("net." + dir)
	}
	defer sp.End()
	n := uint64(len(payload))
	cost := Stats{Calls: 1, Messages: l.model.Messages(n), Bytes: n}
	sp.SetInt("bytes", int64(n))
	sp.SetInt("messages", int64(cost.Messages))
	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	if fault := l.faults.LinkFault(); fault != faultsim.None {
		sp.SetStr("fault", fault.String())
		switch fault {
		case faultsim.Drop:
			cost.Drops = 1
			err = fmt.Errorf("netsim: %s: %w", method, ErrDropped)
		case faultsim.Timeout:
			cost.Timeouts = 1
			err = fmt.Errorf("netsim: %s: %w", method, ErrLinkTimeout)
		case faultsim.Corrupt:
			cost.Corruptions = 1
			err = fmt.Errorf("netsim: %s: %w", method, ErrCorrupt)
		case faultsim.Tamper:
			cost.Tampers = 1
			if len(payload) > 0 {
				tampered := make([]byte, len(payload))
				copy(tampered, payload)
				tampered[l.faults.Intn(len(tampered))] ^= 1 << l.faults.Intn(8)
				payload = tampered
			}
		case faultsim.Latency:
			cost.Latencies = 1
			cost.LatencySim = l.faults.Policy().ExtraLatency
			sp.SetInt("latencySimNs", int64(cost.LatencySim))
		}
	}
	l.stats.add(cost)
	if err != nil {
		return nil, cost, err
	}
	return payload, cost, nil
}

// Stats returns the cumulative counters.
func (l *Link) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}
