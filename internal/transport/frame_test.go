package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"runtime"
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

// envelope builds the stream envelope of header and body from the
// layout's definition, apart from the writer: the prefix's checksum
// covers the two length fields and the header, and not the body.
func envelope(header, body []byte) []byte {
	out := binary.BigEndian.AppendUint16(nil, FrameMagic)
	out = binary.BigEndian.AppendUint32(out, uint32(len(header)))
	out = binary.BigEndian.AppendUint32(out, uint32(len(body)))
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(append(bytes.Clone(out[2:]), header...)))
	return append(append(out, header...), body...)
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
// envelope and leaves the next one's bytes unread — the asymmetry that
// distinguishes it from the datagram decoder — whether it reads into new
// buffers, as TCP does, or into its own, as a Server does. The body is
// not its to check: any bytes pass, sealed frame or not.
func TestReadFrameStreamContract(t *testing.T) {
	f1 := envelope([]byte("first"), []byte("one"))
	f2 := envelope([]byte("second"), []byte("two"))
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
	f := envelope([]byte("header"), []byte("body"))
	var fs frameScratch
	for n := 1; n < len(f); n++ {
		_, _, err := fs.read(bytes.NewReader(f[:n]), false)
		if !errors.Is(err, ErrFrameTruncated) {
			t.Fatalf("stream cut at %d bytes: got %v, want ErrFrameTruncated", n, err)
		}
	}
}

// TestReadFrameOversizeRejected: a body length whose frame exceeds
// DefaultMaxFrameBytes — by a GiB or by one byte — fails typed, without
// reading the payload, and so does a header longer than any the
// protocol writes, before the header is read. The reader after the
// failure is positioned after the prefix and the header — nothing of
// the body was slurped.
func TestReadFrameOversizeRejected(t *testing.T) {
	header := appendCallHeader(nil, "m")
	for _, c := range []struct {
		name   string
		header []byte
		blen   uint32
		want   error
	}{
		{"forged 2 GiB", header, 1 << 31, ErrFrameOversize},
		{"one byte over", nil, DefaultMaxFrameBytes - FrameOverhead + 1, ErrFrameOversize},
		{"header over the bound", make([]byte, maxEnvelopeHeader+1), 0, ErrFrameCorrupt},
	} {
		f := envelope(c.header, nil)
		binary.BigEndian.PutUint32(f[6:], c.blen)
		binary.BigEndian.PutUint32(f[10:], crc32.ChecksumIEEE(append(bytes.Clone(f[2:10]), c.header...)))
		r := bytes.NewReader(append(f, "payload"...))
		var fs frameScratch
		if _, _, err := fs.read(r, false); !errors.Is(err, c.want) {
			t.Fatalf("%s frame: got %v, want %v", c.name, err, c.want)
		}
		read := FrameOverhead + len(c.header)
		if c.want == ErrFrameCorrupt {
			read = FrameOverhead
		}
		if consumed := len(f) + len("payload") - r.Len(); consumed != read {
			t.Errorf("%s frame: the reader consumed %d bytes, want the %d before the body", c.name, consumed, read)
		}
	}
}

// TestReadEnvelopeDamageCostsNoBodyRead: an envelope that declares a
// 60 MiB body — within the frame bound — but whose header fails its
// checksum is refused as corrupt having read the prefix and the header
// alone, and nothing is allocated for the body it declared.
func TestReadEnvelopeDamageCostsNoBodyRead(t *testing.T) {
	header := appendStatus(nil, kindOK, "")
	f := envelope(header, nil)
	binary.BigEndian.PutUint32(f[6:], 60<<20) // the checksum now disagrees
	tail := []byte("the body's first bytes")
	data := append(f, tail...)
	var fs frameScratch
	r := bytes.NewReader(data)
	if _, _, err := fs.read(r, false); !errors.Is(err, ErrFrameCorrupt) { // warms the header buffer
		t.Fatalf("got %v, want ErrFrameCorrupt", err)
	}
	if r.Len() != len(tail) {
		t.Fatalf("the reader consumed %d bytes, want prefix + header = %d", len(data)-r.Len(), FrameOverhead+len(header))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 8 {
		r.Reset(data)
		if _, _, err := fs.read(r, false); !errors.Is(err, ErrFrameCorrupt) {
			t.Fatalf("got %v, want ErrFrameCorrupt", err)
		}
	}
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 64<<10 {
		t.Errorf("8 refused envelopes allocated %d bytes: the declared body was allocated", grown)
	}
}

func TestReadFrameBadMagic(t *testing.T) {
	f := envelope([]byte("h"), []byte("b"))
	f[0] = 0x00
	var fs frameScratch
	_, _, err := fs.read(bytes.NewReader(f), false)
	if !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("bad magic: got %v, want ErrFrameCorrupt", err)
	}
}

// TestWriteFrameVectored: the envelope goes out as prefix+header, then
// the caller's body slice itself — never a copy of it — and the bytes
// are the envelope's layout. An empty body is one write.
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
	if want := envelope(header, body); !bytes.Equal(w.buf.Bytes(), want) {
		t.Errorf("written frame differs from the envelope's layout:\n got %x\nwant %x", w.buf.Bytes(), want)
	}

	w = countingWriter{}
	if err := fs.write(&w, append(fs.begin(), header...), nil); err != nil {
		t.Fatalf("write: %v", err)
	}
	if len(w.chunks) != 1 {
		t.Errorf("empty body: %d writes, want 1", len(w.chunks))
	}
	if want := envelope(header, nil); !bytes.Equal(w.buf.Bytes(), want) {
		t.Errorf("empty-body frame differs from the envelope's layout")
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
