// Package transport is the single seam between the DX client side and
// the MedicalServer: everything that carries a framed RPC — the
// simulated link the chaos suites replay deterministically, and real
// TCP sockets — implements the same small interface, so retry, backoff,
// and failover logic is written once and applies identically to a
// simulated remote and a live daemon.
//
// The two flavors:
//
//   - Sim: an in-process Handler reached across a simulated link. An
//     exchange is priced with the 1993 cost model from the crossings it
//     made, and faults replay byte-for-byte from a seed, which is what
//     the chaos and differential suites run on.
//   - TCP: real sockets speaking the CRC frame protocol (frame.go) to a
//     qbismd daemon. The only flavor allowed to read the wall clock.
//
// The transport that carries a call is the only place that prices it:
// Exchange returns the call's own bill (Stats), exact however many calls
// overlap, and Stats() is the cumulative meter, for metrics.
//
// The client's resilience policy lives here too (retry.go): RetryPolicy,
// the jittered retry schedule, and RetryableError, which judges only the
// transport's own sentinels — the service wraps its failures in
// ErrRemote or ErrNodeFault. The cluster's read loop applies both.
package transport

import (
	"errors"
	"time"

	"qbism/internal/obs"
)

// Typed transport failures beyond the frame errors (frame.go). All are
// matchable with errors.Is through %w chains.
var (
	// ErrClosed means the transport was closed and cannot carry calls.
	ErrClosed = errors.New("transport: closed")
	// ErrDial means establishing the connection failed (retryable: the
	// server may be back for the next attempt).
	ErrDial = errors.New("transport: dial failed")
	// ErrConn means an established connection broke mid-call
	// (retryable: the client redials lazily on the next call).
	ErrConn = errors.New("transport: connection failed")
	// ErrAdmissionRejected means the server's per-client admission
	// control refused the call (retryable: back off and try again).
	ErrAdmissionRejected = errors.New("transport: admission rejected")
	// ErrDraining means the server is shutting down and refused new
	// work (retryable: another node, or the restarted server, may
	// answer).
	ErrDraining = errors.New("transport: server draining")
	// ErrRemote marks a server-side failure the server itself
	// classified as retryable (a device read fault); it wraps the cause,
	// which over a socket arrives only as text, so the client matches
	// this sentinel instead.
	ErrRemote = errors.New("transport: retryable remote failure")
	// ErrNodeFault marks a failure of this node's copy (a page rotted at
	// rest): not retryable on this node, but a replica may answer.
	ErrNodeFault = errors.New("transport: node fault")
	// ErrUnknownMethod means the server has no handler for the method.
	ErrUnknownMethod = errors.New("transport: unknown method")
	// ErrWireHeader means a header inside a valid frame — call, status,
	// or the application's spec and meta — has a version, a flag or a
	// shape this end does not speak. Terminal: the frame's CRC passed, so
	// the bytes are what the peer meant and a retry would repeat them.
	ErrWireHeader = errors.New("transport: unsupported wire header")
)

// Handler is the server side of the seam: it answers one framed RPC.
// The span is the server-side trace span for the call (nil when the
// call is untraced). request is valid only until the handler returns —
// a Server reads the connection's next request into the same buffer —
// so a handler copies what it keeps. The reply is the handler's until it
// is written: Sim hands it to its caller, who keeps it — DX renders
// straight from the wire bytes — so a reply Sim carries is never
// released; a Server serves a Service, and releases each ok reply once
// written (server.go).
type Handler func(sp *obs.Span, method string, request []byte) ([]byte, error)

// Stats is traffic accounting in one of two roles. Exchange returns one
// call's bill: Calls 1, Errors 0 or 1, and the messages, bytes and
// latency that call put on its link. Stats() is a transport's cumulative
// meter, the sum of every bill it issued, for metrics. A call is priced
// by its own bill, never by a difference of the cumulative meter, which
// other calls move too.
type Stats struct {
	// Calls counts exchanges initiated.
	Calls uint64
	// Errors counts exchanges that returned an error.
	Errors uint64
	// Messages counts cost-model messages put on the link (request +
	// response, failed attempts included). The sim flavor takes these
	// from the link's crossings; tcp counts one per direction once the
	// request is on the wire.
	Messages uint64
	// BytesOut and BytesIn count request and response payload bytes.
	BytesOut uint64
	BytesIn  uint64
	// Retries is always 0: a transport carries single exchanges and never
	// learns which of them were retries — ReadInfo.Retries and the
	// qbism_retries_total counter hold those. The field stays until the
	// repo benchmark stops reading it.
	Retries uint64
	// Latency is the network time of carried calls: network-model time
	// plus injected latency for the sim flavor, measured wall time for
	// tcp. A bill's Latency is what the cluster's clock, EWMA and hedging
	// consume.
	Latency time.Duration
}

// Add returns s + o, for summing bills.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Calls:    s.Calls + o.Calls,
		Errors:   s.Errors + o.Errors,
		Messages: s.Messages + o.Messages,
		BytesOut: s.BytesOut + o.BytesOut,
		BytesIn:  s.BytesIn + o.BytesIn,
		Retries:  s.Retries + o.Retries,
		Latency:  s.Latency + o.Latency,
	}
}

// Sub returns s - o: the traffic between two readings of a cumulative
// meter, for metrics over a window.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Calls:    s.Calls - o.Calls,
		Errors:   s.Errors - o.Errors,
		Messages: s.Messages - o.Messages,
		BytesOut: s.BytesOut - o.BytesOut,
		BytesIn:  s.BytesIn - o.BytesIn,
		Retries:  s.Retries - o.Retries,
		Latency:  s.Latency - o.Latency,
	}
}

// Transport carries framed RPCs from a client to a MedicalServer,
// wherever it lives. Implementations must be safe for concurrent use;
// Exchange must wrap typed causes with %w so errors.Is classification
// (RetryableError) survives. A client only exchanges through it; whoever
// built the transport closes it.
type Transport interface {
	// Exchange performs one RPC under the given parent span (nil =
	// untraced) and returns the raw response payload and the call's
	// bill, which the transport has also added to its cumulative meter.
	Exchange(parent *obs.Span, method string, request []byte) ([]byte, Stats, error)
}
