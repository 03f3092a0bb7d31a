// Package netsim simulates the RPC link between the Starburst/
// MedicalServer process and the DX executive (Figure 7/8 of the paper).
// It has one job: a payload crosses the link and is counted — messages
// and bytes — and priced with the cost model, reproducing the paper's
// "network" column (message count and answer time). Who is called
// between a request's crossing and its response's is transport.Sim's
// business.
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

// MethodFaults counts injected faults for one RPC method.
type MethodFaults struct {
	Drops       uint64
	Timeouts    uint64
	Corruptions uint64
	Tampers     uint64
}

func (f MethodFaults) sub(o MethodFaults) MethodFaults {
	return MethodFaults{
		Drops:       f.Drops - o.Drops,
		Timeouts:    f.Timeouts - o.Timeouts,
		Corruptions: f.Corruptions - o.Corruptions,
		Tampers:     f.Tampers - o.Tampers,
	}
}

func (f MethodFaults) zero() bool { return f == MethodFaults{} }

// Stats is cumulative link traffic and fault accounting.
type Stats struct {
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
	// Retries counts retried calls as reported by clients via NoteRetry.
	Retries uint64

	// PerMethod breaks the fault counters down by RPC method.
	PerMethod map[string]MethodFaults
}

// Sub returns s - o for per-query deltas. The per-method map subtracts
// entry-wise; methods whose delta is zero are omitted.
func (s Stats) Sub(o Stats) Stats {
	d := Stats{
		Calls:       s.Calls - o.Calls,
		Messages:    s.Messages - o.Messages,
		Bytes:       s.Bytes - o.Bytes,
		Drops:       s.Drops - o.Drops,
		Timeouts:    s.Timeouts - o.Timeouts,
		Corruptions: s.Corruptions - o.Corruptions,
		Tampers:     s.Tampers - o.Tampers,
		Latencies:   s.Latencies - o.Latencies,
		LatencySim:  s.LatencySim - o.LatencySim,
		Retries:     s.Retries - o.Retries,
	}
	for method, f := range s.PerMethod {
		if df := f.sub(o.PerMethod[method]); !df.zero() {
			if d.PerMethod == nil {
				d.PerMethod = make(map[string]MethodFaults)
			}
			d.PerMethod[method] = df
		}
	}
	return d
}

// Link is a simulated bidirectional RPC channel. It is safe for
// concurrent use.
type Link struct {
	model costmodel.Model

	mu     sync.Mutex
	stats  Stats              // guarded by mu
	faults *faultsim.Injector // guarded by mu
}

// NewLink creates a link priced with the given model.
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
// with a typed error. The payload is metered even when it is lost — the
// bytes were sent. The crossing is traced as a "net.<dir>" span under
// parent (nil = untraced) carrying bytes, messages and any injected fault.
func (l *Link) Cross(parent *obs.Span, dir, method string, payload []byte) ([]byte, error) {
	var sp *obs.Span // named only under a live span, so an untraced crossing allocates nothing
	if parent != nil {
		sp = parent.Child("net." + dir)
	}
	defer sp.End()
	sp.SetInt("bytes", int64(len(payload)))
	l.mu.Lock()
	defer l.mu.Unlock()
	sp.SetInt("messages", int64(l.model.Messages(uint64(len(payload)))))
	l.meter(uint64(len(payload)))
	if fault := l.faults.LinkFault(); fault != faultsim.None {
		sp.SetStr("fault", fault.String())
		switch fault {
		case faultsim.Drop:
			l.stats.Drops++
			l.bumpMethodFault(method, faultsim.Drop)
			return nil, fmt.Errorf("netsim: %s: %w", method, ErrDropped)
		case faultsim.Timeout:
			l.stats.Timeouts++
			l.bumpMethodFault(method, faultsim.Timeout)
			return nil, fmt.Errorf("netsim: %s: %w", method, ErrLinkTimeout)
		case faultsim.Corrupt:
			l.stats.Corruptions++
			l.bumpMethodFault(method, faultsim.Corrupt)
			return nil, fmt.Errorf("netsim: %s: %w", method, ErrCorrupt)
		case faultsim.Tamper:
			l.stats.Tampers++
			l.bumpMethodFault(method, faultsim.Tamper)
			if len(payload) > 0 {
				tampered := make([]byte, len(payload))
				copy(tampered, payload)
				tampered[l.faults.Intn(len(tampered))] ^= 1 << l.faults.Intn(8)
				payload = tampered
			}
		case faultsim.Latency:
			l.stats.Latencies++
			l.stats.LatencySim += l.faults.Policy().ExtraLatency
			sp.SetInt("latencySimNs", int64(l.faults.Policy().ExtraLatency))
		}
	}
	return payload, nil
}

// bumpMethodFault increments one per-method fault counter. Callers must
// hold l.mu.
func (l *Link) bumpMethodFault(method string, k faultsim.Kind) {
	if l.stats.PerMethod == nil {
		l.stats.PerMethod = make(map[string]MethodFaults)
	}
	f := l.stats.PerMethod[method]
	switch k {
	case faultsim.Drop:
		f.Drops++
	case faultsim.Timeout:
		f.Timeouts++
	case faultsim.Corrupt:
		f.Corruptions++
	case faultsim.Tamper:
		f.Tampers++
	}
	l.stats.PerMethod[method] = f
}

// NoteRetry records that a client retried a failed call; the link keeps
// the counter so per-query deltas line up with the traffic counters.
func (l *Link) NoteRetry() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats.Retries++
}

// meter counts one payload crossing. Callers must hold l.mu.
func (l *Link) meter(payload uint64) {
	l.stats.Calls++
	l.stats.Messages += l.model.Messages(payload)
	l.stats.Bytes += payload
}

// Stats returns the cumulative counters. The per-method map is copied.
func (l *Link) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.stats
	if l.stats.PerMethod != nil {
		s.PerMethod = make(map[string]MethodFaults, len(l.stats.PerMethod))
		for m, f := range l.stats.PerMethod {
			s.PerMethod[m] = f
		}
	}
	return s
}

// ResetStats zeroes the counters.
func (l *Link) ResetStats() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats = Stats{}
}

// SimTime prices the current counters with the link's model, including
// injected latency.
func (l *Link) SimTime() (messages uint64, seconds float64) {
	s := l.Stats()
	return s.Messages, (l.model.NetworkTime(s.Messages) + s.LatencySim).Seconds()
}
