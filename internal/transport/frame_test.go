package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

func mustFrame(t *testing.T, header, body []byte) []byte {
	t.Helper()
	f, err := EncodeFrame(header, body)
	if err != nil {
		t.Fatalf("EncodeFrame: %v", err)
	}
	return f
}

func TestFrameRoundTrip(t *testing.T) {
	cases := []struct{ header, body []byte }{
		{[]byte(`{"n":32}`), []byte("voxels")},
		{nil, nil},
		{[]byte("h"), nil},
		{nil, make([]byte, 10000)},
	}
	for i, c := range cases {
		f := mustFrame(t, c.header, c.body)
		h, b, err := DecodeFrame(f)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(h, c.header) || !bytes.Equal(b, c.body) {
			t.Errorf("case %d: round trip mismatch", i)
		}
	}
}

func TestFrameDetectsEveryBitFlip(t *testing.T) {
	f := mustFrame(t, []byte(`{"studyId":1}`), []byte{1, 2, 3, 4, 5})
	for pos := 0; pos < len(f); pos++ {
		for bit := 0; bit < 8; bit++ {
			dam := append([]byte(nil), f...)
			dam[pos] ^= 1 << bit
			_, _, err := DecodeFrame(dam)
			if err == nil {
				t.Fatalf("flip at byte %d bit %d undetected", pos, bit)
			}
			if !errors.Is(err, ErrFrameCorrupt) && !errors.Is(err, ErrFrameTruncated) {
				t.Fatalf("flip at byte %d bit %d: untyped error %v", pos, bit, err)
			}
		}
	}
}

func TestFrameDetectsTruncation(t *testing.T) {
	f := mustFrame(t, []byte("header"), []byte("body bytes"))
	for n := 0; n < len(f); n++ {
		_, _, err := DecodeFrame(f[:n])
		if !errors.Is(err, ErrFrameTruncated) && !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("truncation to %d bytes: %v", n, err)
		}
	}
	// Trailing garbage is corruption for the datagram decoder, not a
	// longer frame.
	if _, _, err := DecodeFrame(append(append([]byte(nil), f...), 0xFF)); !errors.Is(err, ErrFrameCorrupt) {
		t.Errorf("trailing byte: %v", err)
	}
}

func TestFrameHugeDeclaredLength(t *testing.T) {
	// A corrupted length field must not cause a slice panic or a huge
	// allocation — just a typed error.
	f := mustFrame(t, []byte("hh"), []byte("bb"))
	f[2], f[3], f[4], f[5] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, _, err := DecodeFrame(f); !errors.Is(err, ErrFrameTruncated) {
		t.Errorf("huge header length: %v", err)
	}
}

// TestReadFrameStreamContract: the stream reader consumes exactly one
// frame and leaves the next frame's bytes unread — the asymmetry that
// distinguishes it from the datagram decoder — whether it reads into new
// buffers, as TCP does, or into its own, as a Server does.
func TestReadFrameStreamContract(t *testing.T) {
	f1 := mustFrame(t, []byte("first"), []byte("one"))
	f2 := mustFrame(t, []byte("second"), []byte("two"))
	for _, reuse := range []bool{false, true} {
		r := bytes.NewReader(append(append([]byte(nil), f1...), f2...))
		var fs frameScratch
		h, b, err := fs.read(r, reuse)
		if err != nil {
			t.Fatalf("reuse=%v: first frame: %v", reuse, err)
		}
		if string(h) != "first" || string(b) != "one" {
			t.Fatalf("reuse=%v: first frame: got %q/%q", reuse, h, b)
		}
		h, b, err = fs.read(r, reuse)
		if err != nil {
			t.Fatalf("reuse=%v: second frame: %v", reuse, err)
		}
		if string(h) != "second" || string(b) != "two" {
			t.Fatalf("reuse=%v: second frame: got %q/%q", reuse, h, b)
		}
		// A cleanly exhausted stream is io.EOF, not a frame error.
		if _, _, err := fs.read(r, reuse); err != io.EOF {
			t.Fatalf("reuse=%v: exhausted stream: got %v, want io.EOF", reuse, err)
		}
	}
}

func TestReadFrameMidFrameEOF(t *testing.T) {
	f := mustFrame(t, []byte("header"), []byte("body"))
	var fs frameScratch
	for n := 1; n < len(f); n++ {
		_, _, err := fs.read(bytes.NewReader(f[:n]), false)
		if !errors.Is(err, ErrFrameTruncated) {
			t.Fatalf("stream cut at %d bytes: got %v, want ErrFrameTruncated", n, err)
		}
	}
}

// TestReadFrameOversizeRejected: a forged length field larger than
// DefaultMaxFrameBytes — by a GiB or by one byte — fails typed, without
// reading the payload. The reader after the failure is positioned after
// the prefix only — nothing was slurped.
func TestReadFrameOversizeRejected(t *testing.T) {
	for _, c := range []struct {
		name       string
		hlen, blen uint32
	}{
		{"forged 2 GiB", 1 << 30, 1 << 30},
		{"one byte over", 0, DefaultMaxFrameBytes - FrameOverhead + 1},
	} {
		var prefix [FrameOverhead]byte
		binary.BigEndian.PutUint16(prefix[:], FrameMagic)
		binary.BigEndian.PutUint32(prefix[2:], c.hlen)
		binary.BigEndian.PutUint32(prefix[6:], c.blen)
		r := bytes.NewReader(append(prefix[:], "payload"...))
		var fs frameScratch
		if _, _, err := fs.read(r, false); !errors.Is(err, ErrFrameOversize) {
			t.Fatalf("%s frame: got %v, want ErrFrameOversize", c.name, err)
		}
		if r.Len() != len("payload") {
			t.Errorf("%s frame: the reader consumed %d bytes past the prefix", c.name, len("payload")-r.Len())
		}
	}
}

func TestReadFrameBadMagic(t *testing.T) {
	f := mustFrame(t, []byte("h"), []byte("b"))
	f[0] = 0x00
	var fs frameScratch
	_, _, err := fs.read(bytes.NewReader(f), false)
	if !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("bad magic: got %v, want ErrFrameCorrupt", err)
	}
}

// TestWriteFrameVectored: the frame goes out as prefix+header, then the
// caller's body slice itself — never a copy of it — and the bytes are
// EncodeFrame's. An empty body is one write.
func TestWriteFrameVectored(t *testing.T) {
	header, body := []byte("hdr"), []byte("body")
	var w countingWriter
	var fs frameScratch
	if err := fs.write(&w, append(fs.begin(), header...), body); err != nil {
		t.Fatalf("write: %v", err)
	}
	if len(w.chunks) != 2 {
		t.Fatalf("write issued %d writes, want 2 (prefix+header, body)", len(w.chunks))
	}
	if &w.chunks[1][0] != &body[0] || len(w.chunks[1]) != len(body) {
		t.Error("the body reached the writer as a copy, not as the caller's slice")
	}
	if want := mustFrame(t, header, body); !bytes.Equal(w.buf.Bytes(), want) {
		t.Errorf("written frame differs from EncodeFrame's:\n got %x\nwant %x", w.buf.Bytes(), want)
	}

	w = countingWriter{}
	if err := fs.write(&w, append(fs.begin(), header...), nil); err != nil {
		t.Fatalf("write: %v", err)
	}
	if len(w.chunks) != 1 {
		t.Errorf("empty body: %d writes, want 1", len(w.chunks))
	}
	if want := mustFrame(t, header, nil); !bytes.Equal(w.buf.Bytes(), want) {
		t.Errorf("empty-body frame differs from EncodeFrame's")
	}
}

// TestWriteFrameShortWrite: a writer that takes fewer bytes than it was
// given — with or without saying so — fails the frame with ErrConn.
func TestWriteFrameShortWrite(t *testing.T) {
	for _, honest := range []bool{true, false} {
		w := &shortWriter{limit: FrameOverhead + 5, honest: honest}
		var fs frameScratch
		err := fs.write(w, append(fs.begin(), "hdr"...), []byte("a body that will not fit"))
		if !errors.Is(err, ErrConn) || !errors.Is(err, io.ErrShortWrite) {
			t.Errorf("honest=%v: got %v, want ErrConn wrapping io.ErrShortWrite", honest, err)
		}
	}
}

func TestWriteFrameWrappedWriteError(t *testing.T) {
	var fs frameScratch
	err := fs.write(failWriter{}, append(fs.begin(), 'h'), nil)
	if !errors.Is(err, ErrConn) {
		t.Fatalf("write failure: got %v, want ErrConn", err)
	}
	if !strings.Contains(err.Error(), "sink broke") {
		t.Errorf("underlying cause lost: %v", err)
	}
}

// countingWriter records every Write it receives: the slice as passed
// (to tell a reference from a copy) and the concatenated bytes.
type countingWriter struct {
	buf    bytes.Buffer
	chunks [][]byte
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.chunks = append(w.chunks, p)
	return w.buf.Write(p)
}

// shortWriter accepts limit bytes in all, keeping them, and then stops
// taking any. An honest one reports io.ErrShortWrite as io.Writer
// requires; the other returns the short count alone.
type shortWriter struct {
	limit  int
	honest bool
	taken  bytes.Buffer
}

func (w *shortWriter) Write(p []byte) (int, error) {
	n := min(len(p), w.limit)
	w.limit -= n
	w.taken.Write(p[:n])
	if n < len(p) && w.honest {
		return n, io.ErrShortWrite
	}
	return n, nil
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("sink broke") }
