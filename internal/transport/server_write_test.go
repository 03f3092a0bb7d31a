package transport

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"qbism/internal/obs"
)

// A response that does not go out whole leaves half a frame on the
// stream. These tests pipeline two requests on one connection, break
// the first response's write, and require the server to drop the
// connection — counted — instead of answering the second request into a
// stream no reader can parse any more.

// twoRequests is two request frames back to back, as one write.
func twoRequests(t *testing.T) []byte {
	t.Helper()
	return append(envelope(appendCallHeader(nil, "first"), nil), envelope(appendCallHeader(nil, "second"), nil)...)
}

// waitConnDropped waits until the server has no live connection, then
// checks that it handled exactly one call and counted one write error.
func waitConnDropped(t *testing.T, srv *Server, calls *atomic.Int32) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().Active != 0 || srv.Stats().Accepted == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("connection still open after a failed response write: %+v", srv.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	st := srv.Stats()
	if st.WriteErrors != 1 {
		t.Errorf("write errors %d, want 1", st.WriteErrors)
	}
	if st.Calls != 1 || calls.Load() != 1 {
		t.Errorf("served %d call(s) (handler ran %d time(s)), want 1: a request was read from a connection whose last response broke off",
			st.Calls, calls.Load())
	}
}

// TestServerDropsConnAfterShortWrite: the connection takes the first
// few bytes of a response and then fails the write.
func TestServerDropsConnAfterShortWrite(t *testing.T) {
	var calls atomic.Int32
	metrics := obs.NewRegistry()
	srv := NewServer(kept(func(sp *obs.Span, method string, request []byte) ([]byte, error) {
		calls.Add(1)
		return make([]byte, 1<<16), nil
	}), ServerConfig{Metrics: metrics})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Start, but on a listener whose connections write short.
	srv.ln = shortListener{Listener: ln, limit: FrameOverhead + 40}
	go srv.acceptLoop()
	t.Cleanup(func() { srv.Close() })

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(twoRequests(t)); err != nil {
		t.Fatal(err)
	}
	waitConnDropped(t, srv, &calls)
	if got := metrics.Counter("transport_server_write_errors_total").Value(); got != 1 {
		t.Errorf("transport_server_write_errors_total = %d, want 1", got)
	}
	// What did arrive is the start of one frame, then end of stream.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var fs frameScratch
	if _, _, err := fs.read(conn, false); !errors.Is(err, ErrFrameTruncated) {
		t.Errorf("client read %v, want ErrFrameTruncated", err)
	}
	srv.Close()
	waitNoServerGoroutines(t)
}

// TestServerDropsConnWhenPeerClosesMidReply: the peer resets the
// connection while the handler runs, so a response far larger than any
// socket buffer cannot be written.
func TestServerDropsConnWhenPeerClosesMidReply(t *testing.T) {
	var calls atomic.Int32
	started := make(chan struct{}, 2) // one per pipelined request: the handler never blocks here
	peerGone := make(chan struct{})
	srv := startServer(t, func(sp *obs.Span, method string, request []byte) ([]byte, error) {
		calls.Add(1)
		started <- struct{}{}
		<-peerGone
		return make([]byte, 32<<20), nil
	}, ServerConfig{})

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(twoRequests(t)); err != nil {
		t.Fatal(err)
	}
	<-started
	conn.(*net.TCPConn).SetLinger(0) // close with a reset, not a lingering FIN
	conn.Close()
	close(peerGone)

	waitConnDropped(t, srv, &calls)
	srv.Close()
	waitNoServerGoroutines(t)
}

// shortListener hands out connections that accept limit bytes of
// output and fail every write after that.
type shortListener struct {
	net.Listener
	limit int
}

func (l shortListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &shortConn{Conn: c, limit: l.limit}, nil
}

type shortConn struct {
	net.Conn
	limit int
}

func (c *shortConn) Write(p []byte) (int, error) {
	n := min(len(p), c.limit)
	c.limit -= n
	n, err := c.Conn.Write(p[:n])
	if err == nil && n < len(p) {
		err = errors.New("injected short write")
	}
	return n, err
}
