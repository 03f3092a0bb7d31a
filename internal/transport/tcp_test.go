package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"qbism/internal/obs"
)

// startServer runs a Server on an ephemeral loopback port and tears it
// down with the test.
func startServer(t *testing.T, h Handler, cfg ServerConfig) *Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	srv := NewServer(h, cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func dialServer(t *testing.T, srv *Server) *TCP {
	t.Helper()
	c := DialTCP(srv.Addr().String(), TCPOptions{CallTimeout: 10 * time.Second})
	t.Cleanup(func() { c.Close() })
	return c
}

func TestTCPRoundTrip(t *testing.T) {
	srv := startServer(t, echoHandler, ServerConfig{})
	c := dialServer(t, srv)

	resp, err := c.Call(nil, "ping", []byte("abc"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "ping:abc" {
		t.Fatalf("got %q", resp)
	}
	// The connection is reused across calls.
	if _, err := c.Call(nil, "ping", []byte("again")); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Calls != 2 || st.Accepted != 1 {
		t.Errorf("server stats %+v, want 2 calls on 1 connection", st)
	}
	cst := c.Stats()
	if cst.Calls != 2 || cst.Errors != 0 {
		t.Errorf("client stats %+v", cst)
	}
	if cst.Latency <= 0 {
		t.Error("tcp calls must measure real latency")
	}
}

// TestTCPLargePayload pushes a multi-megabyte body through the wire
// protocol — past any single-read boundary.
func TestTCPLargePayload(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789abcdef"), 1<<18) // 4 MiB
	srv := startServer(t, func(sp *obs.Span, method string, request []byte) ([]byte, error) {
		return request, nil
	}, ServerConfig{})
	c := dialServer(t, srv)
	resp, err := c.Call(nil, "echo", payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, payload) {
		t.Fatal("large payload mangled in flight")
	}
}

// TestTCPTypedErrorsCrossTheWire: server-side failures arrive as the
// same sentinels errors.Is would match in-process, so client retry
// classification is transport-agnostic.
func TestTCPTypedErrorsCrossTheWire(t *testing.T) {
	srv := startServer(t, func(sp *obs.Span, method string, request []byte) ([]byte, error) {
		switch method {
		case "retryable":
			return nil, fmt.Errorf("device hiccup: %w", ErrRemote)
		case "terminal":
			return nil, errors.New("no such study")
		default:
			return nil, fmt.Errorf("server: %w: %q", ErrUnknownMethod, method)
		}
	}, ServerConfig{})
	c := dialServer(t, srv)

	_, err := c.Call(nil, "retryable", nil)
	if !errors.Is(err, ErrRemote) || !RetryableError(err) {
		t.Errorf("retryable remote failure: %v", err)
	}
	_, err = c.Call(nil, "terminal", nil)
	if err == nil || RetryableError(err) {
		t.Errorf("terminal remote failure classified retryable: %v", err)
	}
	_, err = c.Call(nil, "nosuch", nil)
	if !errors.Is(err, ErrUnknownMethod) {
		t.Errorf("unknown method: %v", err)
	}
	if st := srv.Stats(); st.Errors != 3 {
		t.Errorf("server errors %d, want 3", st.Errors)
	}
}

// TestTCPAdmissionRejection: a client over its rate gets typed
// ErrAdmissionRejected replies, and the server counts them.
func TestTCPAdmissionRejection(t *testing.T) {
	srv := startServer(t, echoHandler, ServerConfig{Admission: AdmissionConfig{Rate: 1, Burst: 2}})
	c := dialServer(t, srv)

	var rejected int
	for i := 0; i < 6; i++ {
		if _, err := c.Call(nil, "ping", nil); err != nil {
			if !errors.Is(err, ErrAdmissionRejected) {
				t.Fatalf("call %d: %v", i, err)
			}
			if !RetryableError(err) {
				t.Fatal("admission rejection must be retryable (back off and try again)")
			}
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("no admission rejections at 6 instant calls against rate 1/burst 2")
	}
	if got := srv.Stats().AdmissionRejected; got != uint64(rejected) {
		t.Errorf("server counted %d rejections, client saw %d", got, rejected)
	}
}

// TestTCPReconnectsAfterServerRestart: a broken stream is a typed
// retryable error and the client redials lazily — the next call works
// against a new server on the same address.
func TestTCPReconnectsAfterServerRestart(t *testing.T) {
	srv := NewServer(echoHandler, ServerConfig{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()
	c := DialTCP(addr, TCPOptions{})
	defer c.Close()
	if _, err := c.Call(nil, "ping", []byte("1")); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	// The established connection is dead: the call fails typed.
	_, err := c.Call(nil, "ping", []byte("2"))
	if !RetryableError(err) {
		t.Fatalf("dead server: got %v, want a retryable error", err)
	}

	srv2 := NewServer(echoHandler, ServerConfig{Addr: addr})
	if err := srv2.Start(); err != nil {
		t.Skipf("ephemeral port %s reused before restart: %v", addr, err)
	}
	defer srv2.Close()
	resp, err := c.Call(nil, "ping", []byte("3"))
	if err != nil {
		t.Fatalf("after restart: %v", err)
	}
	if string(resp) != "ping:3" {
		t.Fatalf("got %q", resp)
	}
}

// assertNothingOnWire checks a failed call's bill and the meter's
// movement: a call that wrote nothing bills only Calls and Errors.
func assertNothingOnWire(t *testing.T, c *TCP, call func() (Stats, error), wantErr error) {
	t.Helper()
	before := c.Stats()
	bill, err := call()
	if !errors.Is(err, wantErr) {
		t.Fatalf("got %v, want %v", err, wantErr)
	}
	if want := (Stats{Calls: 1, Errors: 1}); bill != want {
		t.Errorf("bill %+v, want %+v", bill, want)
	}
	if d := c.Stats().Sub(before); d != bill {
		t.Errorf("Stats moved by %+v, the bill is %+v", d, bill)
	}
}

func TestTCPDialFailureTyped(t *testing.T) {
	// A listener that never accepts vs. a closed port: use a closed
	// port — dial fails fast with a typed error.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	c := DialTCP(addr, TCPOptions{DialTimeout: time.Second})
	defer c.Close()
	assertNothingOnWire(t, c, func() (Stats, error) {
		_, bill, err := c.Exchange(nil, "ping", []byte("never sent"))
		if !RetryableError(err) {
			t.Error("dial failure must be retryable")
		}
		return bill, err
	}, ErrDial)
}

func TestTCPClosedFences(t *testing.T) {
	srv := startServer(t, echoHandler, ServerConfig{})
	c := DialTCP(srv.Addr().String(), TCPOptions{})
	if _, err := c.Call(nil, "ping", nil); err != nil {
		t.Fatal(err)
	}
	c.Close()
	assertNothingOnWire(t, c, func() (Stats, error) {
		_, bill, err := c.Exchange(nil, "ping", []byte("never sent"))
		return bill, err
	}, ErrClosed)
}

// TestTCPBillsSumToStats: each exchange's bill is what it put on the
// wire — two messages, its request's bytes out and, on success, its
// response's bytes in — and the bills sum to the cumulative meter.
func TestTCPBillsSumToStats(t *testing.T) {
	srv := startServer(t, func(sp *obs.Span, method string, request []byte) ([]byte, error) {
		if method == "fail" {
			return nil, errors.New("no such study")
		}
		return echoHandler(sp, method, request)
	}, ServerConfig{})
	c := dialServer(t, srv)
	var sum Stats
	for i, method := range []string{"ping", "fail", "ping"} {
		request := bytes.Repeat([]byte("r"), 100*i)
		resp, bill, err := c.Exchange(nil, method, request)
		want := Stats{Calls: 1, Messages: 2, BytesOut: uint64(len(request)), BytesIn: uint64(len(resp)), Latency: bill.Latency}
		if err != nil {
			want.Errors = 1
		}
		if bill != want || bill.Latency <= 0 {
			t.Errorf("%s: bill %+v, want %+v with a measured latency", method, bill, want)
		}
		sum = sum.Add(bill)
	}
	if got := c.Stats(); got != sum {
		t.Errorf("Stats %+v, Σ bills %+v", got, sum)
	}
}

// TestTCPGarbageRequestDropsConnection: a client that sends bytes that
// are not a frame gets a typed reply (best effort) and the connection
// closed — the server never guesses at resynchronization.
func TestTCPGarbageRequestDropsConnection(t *testing.T) {
	srv := startServer(t, echoHandler, ServerConfig{})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(bytes.Repeat([]byte{0xAB}, 64)); err != nil {
		t.Fatal(err)
	}
	// The server replies with a status frame and closes; reading to EOF
	// must terminate (no hang) and the frame-error counter bumps.
	buf := make([]byte, 1<<16)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		if _, err := conn.Read(buf); err != nil {
			break
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().FrameErrors == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := srv.Stats().FrameErrors; got != 1 {
		t.Errorf("frame errors %d, want 1", got)
	}
}
