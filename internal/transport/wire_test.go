package transport

import (
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"qbism/internal/costmodel"
	"qbism/internal/netsim"
	"qbism/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire_golden.txt from the encoders")

// TestWireGolden pins the call and status headers byte for byte: a
// layout change shows up as a diff of testdata/wire_golden.txt, and the
// offsets DESIGN.md §14 documents are asserted against the same bytes.
func TestWireGolden(t *testing.T) {
	cases := []struct {
		name string
		got  []byte
	}{
		{"call medicalQuery", appendCallHeader(nil, "medicalQuery")},
		{"status ok", appendStatus(nil, kindOK, "")},
		{"status admission", appendStatus(nil, kindAdmission, "client 10.0.0.7 over rate")},
		{"status draining", appendStatus(nil, kindDraining, "server draining")},
		{"status retryable", appendStatus(nil, kindRetryable, "lfm: read fault")},
		{"status terminal", appendStatus(nil, kindTerminal, "qbism: no warped study 9 in atlas \"Talairach\"")},
		{"status unknown-method", appendStatus(nil, kindUnknownMethod, "qbism: transport: unknown method: \"nope\"")},
	}
	var out strings.Builder
	for _, tc := range cases {
		fmt.Fprintf(&out, "%s: %s\n", tc.name, hex.EncodeToString(tc.got))
	}
	const path = "testdata/wire_golden.txt"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("wire headers changed (run with -update only for a reviewed wire revision):\n got:\n%s\nwant:\n%s", out.String(), want)
	}

	// The documented layout, field by field.
	call := cases[0].got
	for _, f := range []struct {
		field      string
		off, width int
		want       []byte
	}{
		{"version", 0, 1, []byte{1}},
		{"flags (reserved: trace, deadline)", 1, 1, make([]byte, 1)},
		{"trace id (reserved: stitched trace)", 2, 16, make([]byte, 16)},
		{"parent span id (reserved: stitched trace)", 18, 8, make([]byte, 8)},
		{"deadline (reserved: deadlines and cancel)", 26, 8, make([]byte, 8)},
		{"method", callHeaderSize, len("medicalQuery"), []byte("medicalQuery")},
	} {
		if got := call[f.off : f.off+f.width]; !bytes.Equal(got, f.want) {
			t.Errorf("call header %s at [%d,%d): %x, want %x", f.field, f.off, f.off+f.width, got, f.want)
		}
	}
	if callHeaderSize != 34 || len(call) != 34+len("medicalQuery") {
		t.Errorf("call header is %d fixed bytes (%d in all), documented as 34", callHeaderSize, len(call))
	}
	for code, tc := range cases[1:] {
		if tc.got[0] != 1 || tc.got[1] != byte(code) {
			t.Errorf("%s: version %d kind %d, want 1 and %d", tc.name, tc.got[0], tc.got[1], code)
		}
		kind, text, err := parseStatus(tc.got)
		if err != nil || int(kind) != code || !bytes.Equal(text, tc.got[statusSize:]) {
			t.Errorf("%s does not parse back: kind %d text %q err %v", tc.name, kind, text, err)
		}
	}
}

// TestCallHeaderReservedFieldsIgnored: what the stitched trace and
// deadlines will write into the reserved fields, this revision already
// reads past.
func TestCallHeaderReservedFieldsIgnored(t *testing.T) {
	h := appendCallHeader(nil, "m")
	for i := 1; i < callHeaderSize; i++ {
		h[i] = 0xA5
	}
	if method, err := parseCallHeader(h); err != nil || string(method) != "m" {
		t.Fatalf("reserved fields set: method %q, err %v", method, err)
	}
}

// TestUnknownMethodTypedOnBothFlavors: a method nobody serves is the
// same typed, terminal refusal — one a retry loop does not retry — over
// the simulated link and over a socket, in the server's own words: on
// both flavors the call reaches the handler, which is who refuses it.
// The sim flavor therefore meters the request's crossing and nothing
// else.
func TestUnknownMethodTypedOnBothFlavors(t *testing.T) {
	model := costmodel.Default1993()
	refuse := func(sp *obs.Span, method string, request []byte) ([]byte, error) {
		return nil, fmt.Errorf("server: %w: %q", ErrUnknownMethod, method)
	}
	link := netsim.NewLink(model)
	request := []byte("seven b")
	for _, tc := range []struct {
		flavor string
		tr     Transport
	}{
		{"sim", NewSim(link, model, refuse)},
		{"tcp", dialServer(t, startServer(t, refuse, ServerConfig{}))},
	} {
		_, err := tc.tr.Call(nil, "nosuch", request)
		if !errors.Is(err, ErrUnknownMethod) {
			t.Errorf("%s: %v, want ErrUnknownMethod", tc.flavor, err)
		}
		if RetryableError(err) {
			t.Errorf("%s: unknown method classified retryable: %v", tc.flavor, err)
		}
		if err == nil || !strings.Contains(err.Error(), `server: transport: unknown method: "nosuch"`) {
			t.Errorf("%s: error is not the server's own text: %v", tc.flavor, err)
		}
	}
	if ls := link.Stats(); ls.Calls != 1 || ls.Bytes != uint64(len(request)) || ls.Messages != model.Messages(uint64(len(request))) {
		t.Errorf("sim link metered %+v, want exactly the request's crossing", ls)
	}
}

// TestStatusTextTruncated: the server cuts error text to the bound on a
// rune boundary and says so.
func TestStatusTextTruncated(t *testing.T) {
	for _, text := range []string{
		strings.Repeat("x", maxStatusText+1),
		strings.Repeat("é", maxStatusText),           // two-byte runes straddle every odd cut
		"a" + strings.Repeat("☃", maxStatusText/3+8), // three-byte runes
	} {
		h := appendStatus(nil, kindTerminal, text)
		got := string(h[statusSize:])
		if len(got) > maxStatusText {
			t.Errorf("status text is %d bytes, bound %d", len(got), maxStatusText)
		}
		if !utf8.ValidString(got) {
			t.Error("truncation split a rune")
		}
		body, ok := strings.CutSuffix(got, truncatedTail)
		if !ok || !strings.HasPrefix(text, body) || len(body) < maxStatusText-len(truncatedTail)-utf8.UTFMax {
			t.Errorf("truncated text is not a long prefix plus the tail: %d bytes, tail present %v", len(body), ok)
		}
	}
	exact := strings.Repeat("y", maxStatusText)
	if h := appendStatus(nil, kindTerminal, exact); string(h[statusSize:]) != exact {
		t.Error("text exactly at the bound was altered")
	}
}

// TestHugeHandlerErrorOverLoopback: a 1 MiB handler error arrives as a
// bounded, typed remote error, and the connection carries the next call.
func TestHugeHandlerErrorOverLoopback(t *testing.T) {
	srv := startServer(t, func(sp *obs.Span, method string, request []byte) ([]byte, error) {
		if method == "boom" {
			return nil, fmt.Errorf("%s: %w", strings.Repeat("e", 1<<20), ErrRemote)
		}
		return request, nil
	}, ServerConfig{})
	c := dialServer(t, srv)
	_, err := c.Call(nil, "boom", nil)
	if !errors.Is(err, ErrRemote) || !RetryableError(err) {
		t.Fatalf("huge retryable handler error lost its type: %.80v", err)
	}
	if n := len(err.Error()); n > maxStatusText+128 || !strings.HasSuffix(err.Error(), truncatedTail) {
		t.Errorf("client-side error is %d bytes, want at most the bound plus its own prefix, ending in the tail", n)
	}
	if resp, err := c.Call(nil, "echo", []byte("still here")); err != nil || string(resp) != "still here" {
		t.Fatalf("call after the huge error: %q, %v", resp, err)
	}
	if st := srv.Stats(); st.Accepted != 1 || st.WriteErrors != 0 {
		t.Errorf("server stats %+v, want both calls on one connection", st)
	}
}

// rawServer accepts one connection, reads one request frame and answers
// with whatever status header the test wants on the wire.
func rawServer(t *testing.T, status []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, _, err := ReadFrame(conn, 0); err == nil {
			_ = WriteFrame(conn, status, nil) // the client's verdict is the test
		}
	}()
	return ln.Addr().String()
}

// TestClientRefusesBadStatus: a status header over the bound or under
// the fixed fields is a corrupt frame (retryable, connection dropped)
// before any of it becomes a string; one of another version is a typed
// terminal refusal; a kind this client has no name for is a terminal
// remote error.
func TestClientRefusesBadStatus(t *testing.T) {
	long := append([]byte{wireVersion, byte(kindTerminal)}, bytes.Repeat([]byte("z"), maxStatusText+1)...)
	for _, tc := range []struct {
		name      string
		status    []byte
		want      error
		retryable bool
	}{
		{"over the bound", long, ErrFrameCorrupt, true},
		{"short", []byte{wireVersion}, ErrFrameCorrupt, true},
		{"empty", nil, ErrFrameCorrupt, true},
		{"ok with text", []byte{wireVersion, byte(kindOK), 'x'}, ErrFrameCorrupt, true},
		{"version 2", []byte{2, byte(kindOK)}, ErrWireHeader, false},
		{"unknown kind", []byte{wireVersion, 0x7F, 'n', 'e', 'w'}, nil, false},
	} {
		c := DialTCP(rawServer(t, tc.status), TCPOptions{CallTimeout: 10 * time.Second})
		_, err := c.Call(nil, "m", nil)
		c.Close()
		if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) || RetryableError(err) != tc.retryable {
			t.Errorf("%s: got %v (retryable %v), want %v (retryable %v)", tc.name, err, RetryableError(err), tc.want, tc.retryable)
		}
		if len(err.Error()) > 512 {
			t.Errorf("%s: a %d-byte error came out of a refused status", tc.name, len(err.Error()))
		}
	}
}

// TestServerRefusesCallHeaderVersion: a version-2 call header, or one
// too short to be version 1, gets a terminal refusal — not a hang, not
// a dispatch on misread bytes — and counts as a frame error.
func TestServerRefusesCallHeaderVersion(t *testing.T) {
	v2 := appendCallHeader(nil, "ping")
	v2[0] = 2
	for name, header := range map[string][]byte{"version 2": v2, "short": []byte{wireVersion, 0, 0}, "bare method": []byte("ping")} {
		srv := startServer(t, echoHandler, ServerConfig{})
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		if err := WriteFrame(conn, header, nil); err != nil {
			t.Fatal(err)
		}
		status, _, err := ReadFrame(conn, 0)
		if err != nil {
			t.Fatalf("%s: no status reply: %v", name, err)
		}
		kind, text, err := parseStatus(status)
		if err != nil || kind != kindTerminal || !strings.Contains(string(text), "call header") {
			t.Errorf("%s: status kind %d text %q err %v, want a terminal refusal naming the call header", name, kind, text, err)
		}
		if _, _, err := ReadFrame(conn, 0); err == nil {
			t.Errorf("%s: connection stayed open after a refused call header", name)
		}
		conn.Close()
		srv.Close()
		if st := srv.Stats(); st.FrameErrors != 1 || st.Calls != 0 {
			t.Errorf("%s: stats %+v; want 1 frame error and no dispatch", name, st)
		}
	}
}

// TestServerRequestBufferReuse: a connection reads every request into
// one grow-only buffer, lets go of it after a request over
// maxKeptFrame, and a handler sees each request intact either way.
func TestServerRequestBufferReuse(t *testing.T) {
	sizes := []int{100, 80, 200, maxKeptFrame + 1, 100, 100}
	where := make(chan *byte, len(sizes))
	srv := startServer(t, func(sp *obs.Span, method string, request []byte) ([]byte, error) {
		where <- &request[0]
		return []byte{request[0], request[len(request)-1]}, nil
	}, ServerConfig{})
	c := dialServer(t, srv)
	var seen []*byte
	for i, n := range sizes {
		req := bytes.Repeat([]byte{byte('a' + i)}, n)
		resp, err := c.Call(nil, "m", req)
		if err != nil || string(resp) != string([]byte{req[0], req[0]}) {
			t.Fatalf("request %d (%d bytes): %q, %v", i, n, resp, err)
		}
		seen = append(seen, <-where)
	}
	// The 80-byte request fits where the 100-byte one was; 200 bytes
	// grows; after the large one the next starts over and the last
	// reuses that.
	if seen[1] != seen[0] {
		t.Error("a smaller request did not reuse the connection's buffer")
	}
	if seen[2] == seen[0] || seen[4] == seen[3] {
		t.Error("a request that did not fit, or one after a large request, landed in the old buffer")
	}
	if seen[5] != seen[4] {
		t.Error("the buffer allocated after the large request was not kept")
	}
}

// exchangeBodies are the two sizes the per-exchange budget is taken at:
// a small request and one past maxKeptFrame.
var exchangeBodies = []int{100, 256 << 10}

// TestTCPExchangeAllocBudget puts the ceiling where the wire's saving
// is: one Call on a warm connection and the server loop that answers
// it, together. What is left is the client's response buffer — the
// caller keeps it — and, past maxKeptFrame, the server's request
// buffer. (20 and 20 at the parent of PR 21.)
func TestTCPExchangeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	srv := startServer(t, func(sp *obs.Span, method string, request []byte) ([]byte, error) {
		return request, nil
	}, ServerConfig{})
	c := dialServer(t, srv)
	for _, n := range exchangeBodies {
		body := make([]byte, n)
		got := testing.AllocsPerRun(200, func() {
			if _, err := c.Call(nil, "echo", body); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d-byte body: %.1f allocs per exchange", n, got)
		if got > 4 {
			t.Errorf("%d-byte body: %.1f allocs per exchange, ceiling 4 — is frame scratch or a status document being rebuilt per message?", n, got)
		}
	}
}

// BenchmarkTCPExchange is one echo exchange over loopback, client and
// server in this process: ns/op, B/op and allocs/op of the wire alone.
// `make bench-smoke` runs a few iterations.
func BenchmarkTCPExchange(b *testing.B) {
	for _, n := range exchangeBodies {
		b.Run(fmt.Sprintf("body=%d", n), func(b *testing.B) {
			srv := NewServer(func(sp *obs.Span, method string, request []byte) ([]byte, error) {
				return request, nil
			}, ServerConfig{Addr: "127.0.0.1:0"})
			if err := srv.Start(); err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			c := DialTCP(srv.Addr().String(), TCPOptions{})
			defer c.Close()
			body := make([]byte, n)
			b.SetBytes(int64(2 * n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Call(nil, "echo", body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
