package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"qbism/internal/obs"
)

// Server is the wire side of the seam: a TCP listener speaking the
// frame protocol, dispatching requests to a Handler (the
// MedicalServer) with a bounded connection-goroutine pool, per-client
// token-bucket admission control, and graceful drain. cmd/qbismd wraps
// it in a daemon; the loopback equivalence and drain tests drive it
// directly.
//
// Lifecycle: NewServer → Start (listen + accept loop) → Drain (stop
// accepting, finish inflight work, close everything) or Close
// (immediate teardown). After Drain or Close the server cannot be
// restarted — build a new one.

// ServerConfig parameterizes a Server.
type ServerConfig struct {
	// Addr is the listen address (e.g. ":7414", "127.0.0.1:0" for an
	// ephemeral test port).
	Addr string
	// MaxConns bounds concurrently served connections — the
	// connection-goroutine pool. At the bound, further dials wait in
	// the kernel accept queue until a slot frees. Default 64.
	MaxConns int
	// Admission is the per-client token-bucket policy (zero Rate
	// disables).
	Admission AdmissionConfig
	// MaxFrameBytes bounds accepted request frames (default
	// DefaultMaxFrameBytes). Oversize frames are rejected with a typed
	// error before allocation and the connection is closed.
	MaxFrameBytes int64
	// Metrics receives server counters and the per-call latency
	// histogram; nil disables.
	Metrics *obs.Registry
	// Tracer mints per-call server spans; nil disables.
	Tracer *obs.Tracer
	// now is the clock admission control and latency measurement read;
	// tests inject a fake, the daemon uses the wall clock.
	now func() time.Time
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxConns <= 0 {
		c.MaxConns = 64
	}
	if c.MaxFrameBytes <= 0 {
		c.MaxFrameBytes = DefaultMaxFrameBytes
	}
	if c.now == nil {
		c.now = wallNow
	}
	return c
}

// ErrDrainTimeout is returned by Drain when inflight work outlived the
// deadline and remaining connections were force-closed.
var ErrDrainTimeout = errors.New("transport: drain deadline exceeded")

// ServerStats is a snapshot of the server's cumulative counters.
type ServerStats struct {
	// Accepted counts connections accepted; Active is the current
	// connection-goroutine count.
	Accepted uint64
	Active   int
	// Calls counts requests dispatched to the handler; Errors the
	// handler failures among them.
	Calls  uint64
	Errors uint64
	// AdmissionRejected counts calls refused by the token bucket;
	// DrainRejected counts calls refused because the server was
	// draining; FrameErrors counts connections dropped on malformed,
	// oversize, or corrupt request frames.
	AdmissionRejected uint64
	DrainRejected     uint64
	FrameErrors       uint64
	// WriteErrors counts responses that could not be written in full;
	// each one drops its connection, whose stream ends mid-frame.
	WriteErrors uint64
}

// Server listens for framed RPCs and dispatches them to a Handler.
type Server struct {
	cfg     ServerConfig
	handler Handler
	admit   *admitter

	ln    net.Listener
	slots chan struct{} // connection-pool semaphore

	mu       sync.Mutex
	conns    map[*serverConn]struct{} // guarded by mu
	draining bool                     // guarded by mu
	stats    ServerStats              // guarded by mu

	acceptDone chan struct{} // closed when the accept loop exits
	connWG     sync.WaitGroup
}

// serverConn is one accepted connection with the state Drain needs to
// decide between "idle — close now" and "mid-call — let it finish".
type serverConn struct {
	c net.Conn

	// Owned by the connection's one serve goroutine: the frame scratch,
	// which also holds the request it last read, and the last method name
	// seen, so that a repeated method costs no conversion.
	fs     frameScratch
	method string

	mu         sync.Mutex
	busy       bool // guarded by mu; a request is being served
	closeAfter bool // guarded by mu; Drain found it busy: close once the call is answered
	closed     bool // guarded by mu
}

// closeIdle closes the connection unless a call is inflight; an
// inflight connection is marked instead, and its own serve loop closes
// it once the response is written. Exactly one of the two closes it:
// the mark and the loop's busy→idle transition are both under sc.mu.
func (sc *serverConn) closeIdle() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	switch {
	case sc.busy:
		sc.closeAfter = true
	case !sc.closed:
		sc.closed = true
		sc.c.Close()
	}
}

// forceClose unconditionally closes the connection.
func (sc *serverConn) forceClose() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if !sc.closed {
		sc.closed = true
		sc.c.Close()
	}
}

// NewServer builds a server around a handler.
func NewServer(h Handler, cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:        cfg,
		handler:    h,
		admit:      newAdmitter(cfg.Admission, cfg.now),
		slots:      make(chan struct{}, cfg.MaxConns),
		conns:      make(map[*serverConn]struct{}),
		acceptDone: make(chan struct{}),
	}
}

// Start begins listening and serving. It returns once the listener is
// bound, so Addr is valid immediately after.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("transport: listen %s: %w", s.cfg.Addr, err)
	}
	s.ln = ln
	go s.acceptLoop()
	return nil
}

// Addr returns the bound listen address (valid after Start).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// acceptLoop admits connections through the pool semaphore: a slot is
// acquired before Accept, so at MaxConns concurrent connections new
// dials queue in the kernel rather than spawning unbounded goroutines.
func (s *Server) acceptLoop() {
	defer close(s.acceptDone)
	for {
		s.slots <- struct{}{}
		conn, err := s.ln.Accept()
		if err != nil {
			// Listener closed (drain or shutdown) — or a transient
			// accept failure; either way release the slot. Transient
			// failures are indistinguishable from closure without
			// internal sentinels, so the loop exits; Drain is the only
			// caller of Close in this codebase.
			<-s.slots
			return
		}
		sc := &serverConn{c: conn}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			<-s.slots
			continue
		}
		s.conns[sc] = struct{}{}
		s.stats.Accepted++
		s.stats.Active++
		s.mu.Unlock()
		s.connWG.Add(1)
		go s.serveConn(sc)
	}
}

// serveConn runs one connection's request loop until the peer hangs
// up, the stream desynchronizes, a response fails to go out whole, or
// the server drains.
func (s *Server) serveConn(sc *serverConn) {
	defer func() {
		sc.forceClose()
		s.mu.Lock()
		delete(s.conns, sc)
		s.stats.Active--
		s.mu.Unlock()
		<-s.slots
		s.connWG.Done()
	}()
	client := clientKey(sc.c.RemoteAddr())
	for {
		method, request, err := sc.fs.read(sc.c, s.cfg.MaxFrameBytes, true)
		if err == nil {
			method, err = parseCallHeader(method)
		}
		if err != nil {
			if !errors.Is(err, io.EOF) && !isClosedConn(err) {
				s.count(func(st *ServerStats) { st.FrameErrors++ })
				s.metric("transport_server_frame_errors_total")
				// Tell the peer what happened if the stream can still
				// carry a reply, then drop the connection — after a
				// frame error the stream is unsynchronized, so whether the
				// reply got through changes nothing here. (A call header
				// this server does not speak leaves the stream intact, but
				// a peer that sent one will send the next.)
				_ = s.writeStatus(sc, classifyKind(err), err.Error(), nil)
			}
			return
		}
		// The drain check and the busy transition are one critical
		// section against closeIdle, so a draining server never closes
		// a connection that just committed to serving a request.
		sc.mu.Lock()
		if sc.closed {
			sc.mu.Unlock()
			return
		}
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			sc.mu.Unlock()
			s.count(func(st *ServerStats) { st.DrainRejected++ })
			s.metric("transport_server_drain_rejected_total")
			// The connection closes after a draining reply, delivered or not.
			_ = s.writeStatus(sc, kindDraining, "server draining", nil)
			return
		}
		sc.busy = true
		sc.mu.Unlock()

		if string(method) != sc.method { // the comparison does not allocate
			sc.method = string(method)
		}
		werr := s.serveOne(sc, client, sc.method, request)

		// A response that did not go out whole leaves half a frame on
		// the stream: the connection is dropped, never read from again.
		// Otherwise only a connection Drain itself found busy closes
		// here. The server-wide flag is deliberately not consulted: a
		// request already on its way down a still-open connection is
		// answered by the check above (ErrDraining), never reset by this
		// one closing the socket under it.
		sc.mu.Lock()
		sc.busy = false
		done := werr != nil || sc.closeAfter || sc.closed
		sc.mu.Unlock()
		if done {
			return
		}
	}
}

// serveOne admits, dispatches, and answers a single request. The error
// it returns is the response write's: the request was handled, but the
// connection can carry no further exchange.
func (s *Server) serveOne(sc *serverConn, client, method string, request []byte) error {
	if !s.admit.Allow(client) {
		s.count(func(st *ServerStats) { st.AdmissionRejected++ })
		s.metric("transport_admission_rejected_total")
		return s.writeStatus(sc, kindAdmission, fmt.Sprintf("client %s over rate", client), nil)
	}
	var sp *obs.Span
	if s.cfg.Tracer != nil {
		sp = s.cfg.Tracer.Start("rpc." + method)
		sp.SetStr("client", client)
	}
	start := s.cfg.now()
	resp, err := s.handler(sp, method, request)
	elapsed := s.cfg.now().Sub(start)
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.Histogram("transport_server_call_seconds", obs.LatencyBuckets).Observe(elapsed.Seconds())
	}
	s.count(func(st *ServerStats) { st.Calls++ })
	s.metric("transport_server_calls_total")
	if err != nil {
		s.count(func(st *ServerStats) { st.Errors++ })
		s.metric("transport_server_errors_total")
		sp.SetStr("error", err.Error())
		sp.End()
		return s.writeStatus(sc, classifyKind(err), err.Error(), nil)
	}
	sp.SetInt("bytes", int64(len(resp)))
	sp.End()
	return s.writeStatus(sc, kindOK, "", resp)
}

// writeStatus sends one response frame: the status header from the
// connection's scratch, the body by reference in the same vectored
// write. A failure is counted and returned: the stream may hold part of
// a frame, so the caller must not serve another request on this
// connection.
func (s *Server) writeStatus(sc *serverConn, kind statusKind, text string, body []byte) error {
	if err := sc.fs.write(sc.c, appendStatus(sc.fs.begin(), kind, text), body); err != nil {
		s.count(func(st *ServerStats) { st.WriteErrors++ })
		s.metric("transport_server_write_errors_total")
		return err
	}
	return nil
}

// classifyKind maps a server-side error onto the wire status kind the
// client reconstructs a typed error from.
func classifyKind(err error) statusKind {
	for kind, sentinel := range kindSentinel {
		if sentinel != nil && errors.Is(err, sentinel) {
			return statusKind(kind)
		}
	}
	if RetryableError(err) {
		return kindRetryable
	}
	return kindTerminal
}

// Drain shuts the server down gracefully: the listener closes (new
// dials are refused by the OS), idle connections close immediately,
// inflight calls run to completion and their connections close after
// the response is written. If inflight work outlives the timeout the
// remaining connections are force-closed and Drain returns
// ErrDrainTimeout. Drain is idempotent in effect but should be called
// once.
func (s *Server) Drain(timeout time.Duration) error {
	s.mu.Lock()
	s.draining = true
	conns := make([]*serverConn, 0, len(s.conns))
	for sc := range s.conns {
		// The snapshot exists to close every live connection outside
		// s.mu (closeIdle takes sc.mu, which serveConn holds while
		// waiting on s.mu); close order is immaterial.
		//lint:ignore determinism closing a set of live sockets; order does not affect behavior
		conns = append(conns, sc)
	}
	s.mu.Unlock()

	if s.ln != nil {
		s.ln.Close()
	}
	// Idle connections close before anything waits: a full pool parks
	// the accept loop on the slot semaphore, and these closes are what
	// free slots when every holder is idle. The accept-loop exit is
	// folded into the deadline-guarded wait below for the same reason —
	// with every slot held by a busy connection it cannot exit until
	// one finishes, which may be never.
	for _, sc := range conns {
		sc.closeIdle()
	}

	done := make(chan struct{})
	go func() {
		<-s.acceptDone
		s.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-wallAfterCh(timeout):
		s.mu.Lock()
		remaining := make([]*serverConn, 0, len(s.conns))
		for sc := range s.conns {
			//lint:ignore determinism closing a set of live sockets; order does not affect behavior
			remaining = append(remaining, sc)
		}
		s.mu.Unlock()
		for _, sc := range remaining {
			sc.forceClose()
		}
		return fmt.Errorf("%w: %d connection(s) force-closed after %s", ErrDrainTimeout, len(remaining), timeout)
	}
}

// Close tears the server down immediately: listener and every
// connection, inflight or not.
func (s *Server) Close() error {
	s.mu.Lock()
	s.draining = true
	conns := make([]*serverConn, 0, len(s.conns))
	for sc := range s.conns {
		//lint:ignore determinism closing a set of live sockets; order does not affect behavior
		conns = append(conns, sc)
	}
	s.mu.Unlock()
	if s.ln != nil {
		s.ln.Close()
	}
	for _, sc := range conns {
		sc.forceClose()
	}
	<-s.acceptDone
	s.connWG.Wait()
	return nil
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *Server) count(f func(*ServerStats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

func (s *Server) metric(name string) {
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.Counter(name).Inc()
	}
}

// clientKey identifies a client for admission control: the remote
// host, so every connection from one machine shares a bucket.
func clientKey(addr net.Addr) string {
	host, _, err := net.SplitHostPort(addr.String())
	if err != nil {
		return addr.String()
	}
	return host
}

// isClosedConn reports whether err is the "use of closed network
// connection" failure a force-closed connection's pending read returns
// — expected during drain, not a frame error.
func isClosedConn(err error) bool {
	return errors.Is(err, net.ErrClosed)
}

// wallAfterCh is the drain deadline timer.
func wallAfterCh(d time.Duration) <-chan time.Time {
	//lint:ignore determinism the drain deadline bounds real inflight sockets; the sim flavor never calls this
	return time.After(d)
}
