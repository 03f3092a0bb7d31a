package daemon

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"qbism/internal/medserver"
	"qbism/internal/qbism"
	"qbism/internal/transport"
)

// The stream layout these tests read and damage by hand (DESIGN.md §12):
// an envelope of magic(2) | headerLen(4) | bodyLen(4) | crc32(4) |
// header | body, whose body is the application frame.
const (
	prefixLen     = transport.FrameOverhead
	kindRetryable = 3 // the status header's second byte
)

// readEnvelope reads one envelope off r as raw bytes: the prefix, then
// the header and the body it declares.
func readEnvelope(r io.Reader) ([]byte, error) {
	wire := make([]byte, prefixLen)
	if _, err := io.ReadFull(r, wire); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(wire[2:])) + int(binary.BigEndian.Uint32(wire[6:]))
	wire = append(wire, make([]byte, n)...)
	_, err := io.ReadFull(r, wire[prefixLen:])
	return wire, err
}

// flipped is wire with bit i%8 of byte i flipped.
func flipped(wire []byte, i int) []byte {
	out := bytes.Clone(wire)
	out[i] ^= 1 << (i % 8)
	return out
}

// flipFixture is a daemon around a small bare server, one small
// structure query's request and the daemon's reply as they cross the
// stream, envelopes and all, and the answer the reply decodes to.
type flipFixture struct {
	d                      *Daemon
	request, answer        []byte // the application frames
	requestWire, replyWire []byte // as they crossed the stream
}

func newFlipFixture(t *testing.T) *flipFixture {
	t.Helper()
	srv, err := medserver.New(medserver.Config{Bits: 4, NumPET: 1, NumMRI: 1, Seed: 7, SmallStudies: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	d := New(srv, Config{Addr: "127.0.0.1:0"})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	request, err := qbism.EncodeQueryRequest(qbism.QuerySpec{StudyID: srv.Studies[0].StudyID, Atlas: "Talairach", Structure: "putamen"})
	if err != nil {
		t.Fatal(err)
	}

	// Record the exchange as the client and the daemon write it: a peer
	// takes the client's request off the stream, forwards it and hands
	// the daemon's reply back.
	recorded := make(chan [2][]byte, 1)
	addr := fakePeer(t, func(conn net.Conn) {
		requestWire, err := readEnvelope(conn)
		if err != nil {
			return
		}
		up, err := net.Dial("tcp", d.Addr().String())
		if err != nil {
			return
		}
		defer up.Close()
		if _, err := up.Write(requestWire); err != nil {
			return
		}
		if replyWire, err := readEnvelope(up); err == nil {
			recorded <- [2][]byte{requestWire, replyWire}
			conn.Write(replyWire)
		}
	})
	tcp := transport.DialTCP(addr, transport.TCPOptions{})
	defer tcp.Close()
	f := &flipFixture{d: d, request: request}
	if f.answer, err = tcp.Call(nil, qbism.QueryMethod, request); err != nil {
		t.Fatalf("the recorded exchange: %v", err)
	}
	wires := <-recorded
	f.requestWire, f.replyWire = wires[0], wires[1]
	if !bytes.HasSuffix(f.requestWire, request) || !bytes.HasSuffix(f.replyWire, f.answer) {
		t.Fatal("the recorded envelopes do not carry the request and the answer")
	}
	if _, _, err := qbism.DecodeQueryResponse(f.answer); err != nil {
		t.Fatal(err)
	}
	return f
}

// fakePeer serves each connection accepted on a loopback listener with
// serve, in turn, and closes it; the test's cleanup stops it.
func fakePeer(t *testing.T, serve func(conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() { ln.Close(); <-done })
	go func() {
		defer close(done)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			serve(conn)
			conn.Close()
		}
	}()
	return ln.Addr().String()
}

// TestWireByteFlipFaultsAreTyped flips each byte of a small query's
// reply, and then of its request, on a real socket. Every byte — the
// envelope's prefix, the status or call header, the application frame's
// prefix, the meta or spec header and the blob — is covered by exactly
// one checksum: the envelope's for its own prefix and header, the
// application frame's for the payload. Whichever it is, the damage is a
// typed error and never an answer.
func TestWireByteFlipFaultsAreTyped(t *testing.T) {
	f := newFlipFixture(t)

	t.Run("reply", func(t *testing.T) {
		damaged := make(chan []byte, 1)
		addr := fakePeer(t, func(conn net.Conn) {
			reply := <-damaged
			if _, err := readEnvelope(conn); err == nil {
				conn.Write(reply)
			}
		})
		var room [medserver.MetaRoom]byte
		for i := range f.replyWire {
			damaged <- flipped(f.replyWire, i)
			tcp := transport.DialTCP(addr, transport.TCPOptions{})
			resp, _, err := tcp.Exchange(nil, qbism.QueryMethod, f.request)
			tcp.Close()
			if err == nil {
				_, _, err = medserver.DecodeQueryResponseInto(&room, resp)
			}
			if err == nil {
				t.Fatalf("byte %d of %d flipped: the reply decoded to an answer", i, len(f.replyWire))
			}
			typed := false
			for _, want := range []error{transport.ErrFrameCorrupt, transport.ErrFrameTruncated, transport.ErrWireHeader, transport.ErrConn} {
				typed = typed || errors.Is(err, want)
			}
			if !typed {
				t.Fatalf("byte %d flipped: untyped error %v", i, err)
			}
		}
	})

	t.Run("request", func(t *testing.T) {
		envelope := prefixLen + int(binary.BigEndian.Uint32(f.requestWire[2:]))
		before := f.d.Stats()
		for i := range f.requestWire {
			reply := exchangeRaw(t, f.d, flipped(f.requestWire, i))
			if len(reply) == 0 {
				continue // the connection was dropped unanswered
			}
			wire, err := readEnvelope(bytes.NewReader(reply))
			if err != nil || len(wire) != len(reply) {
				t.Fatalf("byte %d flipped: the reply is not one envelope (%d of %d bytes, %v)", i, len(wire), len(reply), err)
			}
			if kind := wire[prefixLen+1]; kind != kindRetryable {
				t.Fatalf("byte %d flipped: status kind %d, want %d (retryable)", i, kind, kindRetryable)
			}
		}
		// Damage to the envelope is a frame error; damage to the payload
		// the handler's refusal.
		after := f.d.Stats()
		if got := after.FrameErrors - before.FrameErrors; got != uint64(envelope) {
			t.Errorf("%d frame errors, want one for each of the envelope's %d bytes", got, envelope)
		}
		if got, want := after.Errors-before.Errors, uint64(len(f.requestWire)-envelope); got != want {
			t.Errorf("%d handler errors, want one for each of the payload's %d bytes", got, want)
		}
	})

	t.Run("connection survives a damaged payload", func(t *testing.T) {
		before := f.d.Stats()
		two := append(flipped(f.requestWire, len(f.requestWire)-1), f.requestWire...)
		r := bytes.NewReader(exchangeRaw(t, f.d, two))
		first, err := readEnvelope(r)
		if err != nil || first[prefixLen+1] != kindRetryable {
			t.Fatalf("damaged request: %x, %v; want a retryable status", first, err)
		}
		second, err := readEnvelope(r)
		if err != nil || r.Len() != 0 || len(second) != len(f.replyWire) {
			t.Fatalf("the next call on the connection: %d bytes, %v; want the %d-byte reply", len(second), err, len(f.replyWire))
		}
		// The meta header's measured CPU time differs from call to call.
		_, blob, err := qbism.DecodeQueryResponse(second[len(second)-len(f.answer):])
		if _, want, _ := qbism.DecodeQueryResponse(f.answer); err != nil || !bytes.Equal(blob, want) {
			t.Fatalf("the next call on the connection was answered with another DATA_REGION (%v)", err)
		}
		after := f.d.Stats()
		if after.Errors-before.Errors != 1 || after.FrameErrors != before.FrameErrors || after.Accepted-before.Accepted != 1 {
			t.Errorf("stats went %+v → %+v; want one more error, no frame error, one connection", before, after)
		}
	})
}

// exchangeRaw writes wire to the daemon on a new connection, closes its
// write side, and returns what the daemon wrote before closing its own:
// all of it, or — when the daemon closed with bytes of wire unread, which
// resets the connection — possibly nothing.
func exchangeRaw(t *testing.T, d *Daemon, wire []byte) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", d.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite() // fails only on a connection the daemon has already dropped
	reply, err := io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("the daemon neither answered nor closed: %v", err)
	}
	return reply
}
