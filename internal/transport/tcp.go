package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
	"unicode/utf8"

	"qbism/internal/obs"
)

// The wire protocol: each call is one envelope exchange on a TCP stream
// (frame.go). The request envelope's header is the call header and its
// body the application payload, a sealed frame whose decoder checks it;
// the response envelope's header is the status header and its body the
// application response, empty unless the kind is ok. Both headers are
// fixed binary layouts, big-endian (DESIGN.md §12):
//
//	call:   version(1)=1 | flags(1) | traceID(16) | parentSpan(8) | deadline(8) | method
//	status: version(1)=1 | kind(1) | error text, at most maxStatusText bytes
//
// The call header's flags, trace id, parent span id and deadline (unix
// nanoseconds) are reserved for the stitched trace and for deadlines and
// cancel: written as zero and ignored on receipt, so switching them on is
// not a second wire revision. A header of another version is refused with
// ErrWireHeader — terminal, because the retry would say the same.
const (
	wireVersion    = 1
	callHeaderSize = 1 + 1 + 16 + 8 + 8 // the method name follows
	statusSize     = 1 + 1              // the error text follows
	// maxStatusText bounds the error text a status header carries: the
	// server truncates to it, a reader refuses more (maxEnvelopeHeader).
	maxStatusText = 4 << 10
	truncatedTail = "…(truncated)"
)

// statusKind classifies a response. Kinds map server-side failures onto
// the client's typed errors so errors.Is classification crosses the
// process boundary; a kind with no sentinel — kindTerminal and any code
// a newer server might send — is a terminal remote error.
type statusKind byte

const (
	kindOK statusKind = iota
	kindAdmission
	kindDraining
	kindRetryable
	kindTerminal
	kindUnknownMethod
	kindNodeFault
)

// kindSentinel is the one table both directions read: classifyKind
// picks the first kind whose sentinel the server's error matches,
// remoteErr wraps that sentinel on the client.
var kindSentinel = [...]error{
	kindAdmission:     ErrAdmissionRejected,
	kindDraining:      ErrDraining,
	kindRetryable:     ErrRemote,
	kindUnknownMethod: ErrUnknownMethod,
	kindNodeFault:     ErrNodeFault,
}

// appendCallHeader appends the call header for method to dst.
func appendCallHeader(dst []byte, method string) []byte {
	var fixed [callHeaderSize]byte
	fixed[0] = wireVersion
	return append(append(dst, fixed[:]...), method...)
}

// parseCallHeader returns the method bytes of a call header.
func parseCallHeader(h []byte) ([]byte, error) {
	switch {
	case len(h) >= 1 && h[0] != wireVersion:
		return nil, fmt.Errorf("%w: call header version %d, want %d", ErrWireHeader, h[0], wireVersion)
	case len(h) < callHeaderSize:
		return nil, fmt.Errorf("%w: %d-byte call header, want at least %d", ErrWireHeader, len(h), callHeaderSize)
	}
	return h[callHeaderSize:], nil
}

// appendStatus appends a status header to dst, cutting text on a rune
// boundary so that it and truncatedTail fit in maxStatusText.
func appendStatus(dst []byte, kind statusKind, text string) []byte {
	dst = append(dst, wireVersion, byte(kind))
	if len(text) <= maxStatusText {
		return append(dst, text...)
	}
	cut := maxStatusText - len(truncatedTail)
	for cut > 0 && !utf8.RuneStart(text[cut]) {
		cut--
	}
	return append(append(dst, text[:cut]...), truncatedTail...)
}

// parseStatus splits a status header, its length bounded by the reader.
// The text stays bytes: only a failed call turns it into a string.
func parseStatus(h []byte) (statusKind, []byte, error) {
	switch {
	case len(h) >= 1 && h[0] != wireVersion:
		return 0, nil, fmt.Errorf("%w: status header version %d, want %d", ErrWireHeader, h[0], wireVersion)
	case len(h) < statusSize, statusKind(h[1]) == kindOK && len(h) > statusSize:
		return 0, nil, fmt.Errorf("%w: %d-byte status header", ErrFrameCorrupt, len(h))
	}
	return statusKind(h[1]), h[statusSize:], nil
}

// remoteErr rebuilds a typed error from a failed status, naming its sentinel once.
func remoteErr(method string, kind statusKind, text []byte) error {
	if int(kind) < len(kindSentinel) && kindSentinel[kind] != nil {
		return fmt.Errorf("transport: %s: %w: %s", method, kindSentinel[kind], bytes.TrimPrefix(text, []byte(kindSentinel[kind].Error()+": ")))
	}
	return fmt.Errorf("transport: %s: remote: %s", method, text)
}

// TCPOptions holds nothing: a TCP transport dials within dialTimeout
// and bounds each call by callTimeout. It remains as DialTCP's second
// argument only because the repo benchmark passes one.
type TCPOptions struct{}

// A TCP transport's two bounds: the dial, and one full
// request/response exchange, set as the connection's deadline.
const (
	dialTimeout = 5 * time.Second
	callTimeout = 60 * time.Second
)

// TCP is the real-socket flavor of the seam: one connection, one
// outstanding call at a time (calls serialize on an internal mutex —
// for concurrent load, dial one TCP transport per worker, which is
// what the repo benchmark does). The connection is established lazily on the
// first call and re-established after any stream failure, so a client
// rides through a server restart: the failed call surfaces as a typed
// retryable error and the retry dials fresh.
type TCP struct {
	addr string

	mu     sync.Mutex
	conn   net.Conn     // guarded by mu; nil when not connected
	closed bool         // guarded by mu
	stats  Stats        // guarded by mu
	fs     frameScratch // guarded by mu; one exchange at a time, so one scratch
}

// DialTCP creates a TCP transport for the daemon at addr. The
// connection itself is established lazily, so DialTCP never blocks;
// an unreachable server surfaces as ErrDial from the first Call.
func DialTCP(addr string, _ TCPOptions) *TCP {
	return &TCP{addr: addr}
}

// Exchange implements Transport: one framed exchange on the connection,
// measured with the wall clock (this is the one flavor where latency
// is real). Any stream-level failure tears the connection down so the
// next call redials. A call that put nothing on the wire — closed, or
// the dial failed — bills only Calls and Errors.
func (t *TCP) Exchange(parent *obs.Span, method string, request []byte) ([]byte, Stats, error) {
	sp := parent.Child("transport.call")
	defer sp.End()
	sp.SetStr("method", method)
	sp.SetStr("flavor", "tcp")
	sp.SetStr("addr", t.addr)

	t.mu.Lock()
	defer t.mu.Unlock()
	bill := Stats{Calls: 1}
	start := wallNow()
	resp, err := t.callLocked(method, request, &bill)
	if bill.Messages > 0 {
		bill.Latency = wallSince(start)
	}
	if err != nil {
		bill.Errors = 1
		sp.SetStr("error", err.Error())
	} else {
		bill.BytesIn = uint64(len(resp))
		sp.SetInt("bytes", int64(len(resp)))
	}
	t.stats = t.stats.Add(bill)
	return resp, bill, err
}

// Call implements Transport: Exchange without the bill.
func (t *TCP) Call(parent *obs.Span, method string, request []byte) ([]byte, error) {
	resp, _, err := t.Exchange(parent, method, request)
	return resp, err
}

// callLocked performs the exchange, billing the request's two messages
// and bytes out once it goes on the wire. Callers must hold t.mu.
func (t *TCP) callLocked(method string, request []byte, bill *Stats) ([]byte, error) {
	if t.closed {
		return nil, fmt.Errorf("transport: tcp %s: %w", t.addr, ErrClosed)
	}
	if t.conn == nil {
		conn, err := net.DialTimeout("tcp", t.addr, dialTimeout)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %w", ErrDial, t.addr, err)
		}
		t.conn = conn
	}
	if err := t.conn.SetDeadline(wallNow().Add(callTimeout)); err != nil {
		t.teardownLocked()
		return nil, fmt.Errorf("%w: %s: setting deadline: %w", ErrConn, t.addr, err)
	}
	bill.Messages, bill.BytesOut = 2, uint64(len(request))
	if err := t.fs.write(t.conn, appendCallHeader(t.fs.begin(), method), request); err != nil {
		t.teardownLocked()
		return nil, err
	}
	// The response buffer is allocated per call: the caller keeps it.
	header, body, err := t.fs.read(t.conn, false)
	if err != nil {
		// The stream is unsynchronized after any read failure (io.EOF
		// here means the server hung up mid-exchange); drop the
		// connection so the next call starts clean.
		t.teardownLocked()
		return nil, fmt.Errorf("%w: %s: %w", ErrConn, t.addr, err)
	}
	kind, text, err := parseStatus(header)
	switch {
	case errors.Is(err, ErrWireHeader):
		t.teardownLocked()
		return nil, fmt.Errorf("transport: tcp %s: %w", t.addr, err)
	case err != nil:
		t.teardownLocked()
		return nil, fmt.Errorf("%w: %s: bad response status: %w", ErrConn, t.addr, err)
	case kind == kindOK:
		return body, nil
	case kind == kindDraining:
		// The server closes the connection after a draining reply;
		// match it so the next attempt redials rather than reading
		// from a half-closed stream.
		t.teardownLocked()
	}
	return nil, remoteErr(method, kind, text)
}

// teardownLocked drops the connection. Callers must hold t.mu.
func (t *TCP) teardownLocked() {
	if t.conn != nil {
		t.conn.Close()
		t.conn = nil
	}
}

// Stats implements Transport.
func (t *TCP) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// Close implements Transport.
func (t *TCP) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	t.teardownLocked()
	return nil
}

var _ Transport = (*TCP)(nil)
