package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// FuzzFrame drives arbitrary bytes through both frame readers and
// checks the codec's invariants:
//
//  1. Neither decoder panics, whatever the input.
//  2. Failures are typed: every error matches ErrFrameTruncated,
//     ErrFrameCorrupt, or ErrFrameOversize (the stream reader,
//     frameScratch.read, may also return a bare io.EOF for an empty
//     stream).
//  3. Accepted frames are canonical: re-encoding the decoded sections
//     reproduces the input byte-for-byte.
//  4. The two readers agree on exact-length input: when the buffer is
//     exactly one frame, the stream reader and DecodeFrame return the
//     same sections; DecodeFrame's trailing-bytes rejections are
//     exactly the inputs where the stream reader stops early with bytes
//     left over.
//  5. The wire does not depend on how a frame is produced: the stream
//     writer (frameScratch.write, what TCP and Server send with) puts
//     EncodeFrame's bytes on the stream for the decoded sections,
//     and cut short anywhere it reports ErrConn with a prefix of those
//     bytes written and nothing else.
func FuzzFrame(f *testing.F) {
	seed := func(header, body []byte) []byte {
		buf, err := EncodeFrame(header, body)
		if err != nil {
			f.Fatal(err)
		}
		return buf
	}
	f.Add(seed([]byte(`{"studyId":1,"fullStudy":true}`), nil))
	f.Add(seed([]byte(`{"ok":true}`), []byte("voxels voxels voxels")))
	f.Add(seed(nil, nil))
	f.Add(seed([]byte("medicalQuery"), seed([]byte(`{"n":32}`), []byte{1, 2, 3}))) // nested wire frame
	f.Add([]byte{})
	f.Add([]byte{0x51, 0x4D})                   // magic only
	f.Add(bytes.Repeat([]byte{0xFF}, 32))       // bad magic, huge lengths
	f.Add(append(seed([]byte("h"), nil), 0xAA)) // trailing byte
	// A bulk reply: a status header over a 3 MB body. (The empty-body
	// status reply is testdata/fuzz/FuzzFrame/40a2244017b47002.)
	f.Add(seed([]byte(`{"ok":true}`), bytes.Repeat([]byte("voxel"), 3<<20/5)))

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
			var whole countingWriter
			if werr := fs.write(&whole, append(fs.begin(), header...), body); werr != nil {
				t.Fatalf("write of accepted frame: %v", werr)
			}
			if !bytes.Equal(whole.buf.Bytes(), re) {
				t.Fatalf("write and EncodeFrame disagree on the wire bytes")
			}
			// Cut the stream at a point the frame's own checksum picks.
			cut := &shortWriter{limit: int(binary.BigEndian.Uint32(re[10:]) % uint32(len(re))), honest: true}
			if werr := fs.write(cut, append(fs.begin(), header...), body); !errors.Is(werr, ErrConn) {
				t.Fatalf("write cut short: got %v, want ErrConn", werr)
			}
			if !bytes.HasPrefix(re, cut.taken.Bytes()) {
				t.Fatalf("write cut short left bytes that are not a prefix of the frame")
			}
		}

		r := bytes.NewReader(data)
		sh, sb, serr := fs.read(r, false)
		if serr != nil {
			if serr != io.EOF &&
				!errors.Is(serr, ErrFrameTruncated) &&
				!errors.Is(serr, ErrFrameCorrupt) &&
				!errors.Is(serr, ErrFrameOversize) {
				t.Fatalf("read: untyped error %v", serr)
			}
			return
		}
		// The stream reader accepted a frame. If it consumed the whole
		// buffer, the datagram decoder must have agreed; if bytes
		// remain, they are the next frame and DecodeFrame must have
		// rejected the buffer as trailing garbage.
		if r.Len() == 0 {
			if err != nil {
				t.Fatalf("read accepted the full buffer but DecodeFrame rejected it: %v", err)
			}
			if !bytes.Equal(sh, header) || !bytes.Equal(sb, body) {
				t.Fatal("read and DecodeFrame disagree on sections")
			}
		} else if err == nil {
			t.Fatalf("DecodeFrame accepted a buffer with %d trailing bytes", r.Len())
		}
	})
}
