package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"
)

// FuzzFrame drives arbitrary bytes through both frame roles — DecodeFrame,
// which reads an application frame, and the stream reader
// (frameScratch.read), which reads an envelope — and checks their
// invariants:
//
//  1. Neither reader panics, whatever the input.
//  2. Failures are typed: every error matches ErrFrameTruncated,
//     ErrFrameCorrupt, or ErrFrameOversize (the stream reader may also
//     return a bare io.EOF for an empty stream).
//  3. Accepted application frames are canonical: re-encoding the
//     decoded sections reproduces the input byte-for-byte.
//  4. The stream reader accepts a frame if and only if its magic, its
//     lengths and its header checksum check, whatever the body holds:
//     it then returns the declared sections and leaves the bytes after
//     the frame unread.
//  5. The writer's bytes are the envelope encoding: the stream writer
//     (frameScratch.write, what TCP and Server send with) puts back
//     exactly the bytes the reader accepted, and for any sections the
//     envelope of the layout's definition; cut short anywhere it
//     reports ErrConn with a prefix of those bytes written and nothing
//     else.
func FuzzFrame(f *testing.F) {
	seed := func(header, body []byte) []byte {
		buf, err := EncodeFrame(header, body)
		if err != nil {
			f.Fatal(err)
		}
		return buf
	}
	call := appendCallHeader(nil, "medicalQuery")
	ok := appendStatus(nil, kindOK, "")
	f.Add(seed(call, nil))
	f.Add(seed(ok, []byte("voxels voxels voxels")))
	f.Add(seed(nil, nil))
	f.Add(envelope(call, seed([]byte("a spec"), nil)))                  // a request on the stream
	f.Add(envelope(ok, seed([]byte("a meta header"), []byte{1, 2, 3}))) // an ok reply on the stream
	f.Add(envelope(appendStatus(nil, kindRetryable, "lfm: read fault"), nil))
	f.Add([]byte{})
	f.Add([]byte{0x51, 0x4D})                   // magic only
	f.Add(bytes.Repeat([]byte{0xFF}, 32))       // bad magic, huge lengths
	f.Add(append(seed([]byte("h"), nil), 0xAA)) // trailing byte
	// A bulk reply: a status header over a 3 MB body.
	f.Add(envelope(ok, bytes.Repeat([]byte("voxel"), 3<<20/5)))

	f.Fuzz(func(t *testing.T, data []byte) {
		var fs frameScratch
		header, body, err := DecodeFrame(data)
		if err != nil {
			if !errors.Is(err, ErrFrameTruncated) && !errors.Is(err, ErrFrameCorrupt) {
				t.Fatalf("DecodeFrame: untyped error %v", err)
			}
		} else {
			re, encErr := EncodeFrame(header, body)
			if encErr != nil {
				t.Fatalf("re-encode of accepted frame: %v", encErr)
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("accepted frame is not canonical: decode→encode changed bytes")
			}
			checkWrite(t, &fs, header, body, envelope(header, body))
		}

		r := bytes.NewReader(data)
		sh, sb, serr := fs.read(r, false)
		if serr != nil && serr != io.EOF &&
			!errors.Is(serr, ErrFrameTruncated) &&
			!errors.Is(serr, ErrFrameCorrupt) &&
			!errors.Is(serr, ErrFrameOversize) {
			t.Fatalf("read: untyped error %v", serr)
		}
		total, valid := envelopeChecks(data)
		if valid != (serr == nil) {
			t.Fatalf("read: error %v, but the envelope's magic, lengths and header checksum check: %v", serr, valid)
		}
		if serr != nil {
			return
		}
		hlen := int(binary.BigEndian.Uint32(data[2:]))
		if !bytes.Equal(sh, data[FrameOverhead:FrameOverhead+hlen]) || !bytes.Equal(sb, data[FrameOverhead+hlen:total]) {
			t.Fatal("read returned other sections than the envelope declares")
		}
		if r.Len() != len(data)-total {
			t.Fatalf("read left %d bytes, want the %d after the frame", r.Len(), len(data)-total)
		}
		checkWrite(t, &fs, sh, sb, data[:total])
	})
}

// envelopeChecks says, from the layout's definition, whether data
// starts with an envelope the stream reader must accept, and how long
// that envelope is.
func envelopeChecks(data []byte) (total int, valid bool) {
	if len(data) < FrameOverhead || binary.BigEndian.Uint16(data) != FrameMagic {
		return 0, false
	}
	hlen := uint64(binary.BigEndian.Uint32(data[2:]))
	blen := uint64(binary.BigEndian.Uint32(data[6:]))
	end := FrameOverhead + hlen + blen
	if hlen > maxEnvelopeHeader || end > DefaultMaxFrameBytes || end > uint64(len(data)) {
		return 0, false
	}
	covered := append(bytes.Clone(data[2:10]), data[FrameOverhead:FrameOverhead+hlen]...)
	return int(end), crc32.ChecksumIEEE(covered) == binary.BigEndian.Uint32(data[10:])
}

// checkWrite holds the stream writer to want, the envelope of header and
// body, whole and cut short.
func checkWrite(t *testing.T, fs *frameScratch, header, body, want []byte) {
	t.Helper()
	var whole countingWriter
	if err := fs.write(&whole, append(fs.begin(), header...), body); err != nil {
		t.Fatalf("write: %v", err)
	}
	if !bytes.Equal(whole.buf.Bytes(), want) {
		t.Fatalf("write and the envelope encoding disagree on the wire bytes")
	}
	// Cut the stream at a point the envelope's own checksum picks.
	cut := &shortWriter{limit: int(binary.BigEndian.Uint32(want[10:]) % uint32(len(want))), honest: true}
	if err := fs.write(cut, append(fs.begin(), header...), body); !errors.Is(err, ErrConn) {
		t.Fatalf("write cut short: got %v, want ErrConn", err)
	}
	if !bytes.HasPrefix(want, cut.taken.Bytes()) {
		t.Fatalf("write cut short left bytes that are not a prefix of the frame")
	}
}
