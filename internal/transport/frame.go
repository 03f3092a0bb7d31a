package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
)

// Every payload crossing the seam travels in a length+checksum frame so
// either end detects truncated or corrupted payloads instead of
// mis-parsing them:
//
//	magic(2) | headerLen(4) | bodyLen(4) | crc32(4) | header | body
//
// For a medicalQuery request the header is the binary QuerySpec and the
// body is empty; for a response the header is the binary QueryMeta and
// the body is the DataRegion blob (internal/qbism/wire.go). On the wire
// the same frame carries one extra nesting level: the header is the call
// header naming the method, or the response's status header (tcp.go),
// and the body is the application frame. The CRC32 (IEEE) covers header
// and body, so any single flipped bit anywhere in the payload is
// detected.

// FrameMagic marks a frame ("QM").
const FrameMagic uint16 = 0x514D

// FrameOverhead is the fixed frame prefix size in bytes.
const FrameOverhead = 14

// DefaultMaxFrameBytes bounds how large a frame a stream reader will
// accept before rejecting it as hostile: a full-study response at the
// paper's 128³ grid is ~2 MB, so 64 MiB leaves two orders of magnitude
// of headroom while still refusing a forged multi-gigabyte length
// before any allocation happens.
const DefaultMaxFrameBytes = 64 << 20

// Typed frame failures. Truncation and corruption indicate the payload
// was damaged in flight, so both are retryable; oversize means a
// declared length exceeded the reader's bound and the frame was
// rejected before allocation.
var (
	// ErrFrameTruncated means the payload is shorter than its frame
	// declares (bytes were lost).
	ErrFrameTruncated = errors.New("transport: frame truncated")
	// ErrFrameCorrupt means the frame's magic, lengths, or checksum do
	// not add up (bytes were altered).
	ErrFrameCorrupt = errors.New("transport: frame corrupt")
	// ErrFrameOversize means a frame declared (or would require) more
	// bytes than the configured limit allows.
	ErrFrameOversize = errors.New("transport: frame oversize")
)

// EncodeFrame wraps header and body in a checksummed frame. Sections
// whose length cannot be declared in the frame's uint32 fields are
// rejected with ErrFrameOversize — before this check existed, a >4 GiB
// section would have encoded a silently truncated length and produced
// a frame that decodes to different bytes than were passed in.
func EncodeFrame(header, body []byte) ([]byte, error) {
	if err := checkSections(header, body); err != nil {
		return nil, err
	}
	out := make([]byte, FrameOverhead+len(header)+len(body))
	copy(out[FrameOverhead:], header)
	copy(out[FrameOverhead+len(header):], body)
	putPrefix(out, header, body)
	return out, nil
}

// checkSections rejects sections the frame's length fields cannot declare.
func checkSections(header, body []byte) error {
	const maxSection = 1<<32 - 1
	if uint64(len(header)) > maxSection || uint64(len(body)) > maxSection {
		return fmt.Errorf("%w: header %d / body %d bytes exceed the uint32 length fields",
			ErrFrameOversize, len(header), len(body))
	}
	return nil
}

// putPrefix writes the fixed prefix of the frame carrying header and
// body into dst[:FrameOverhead]. The checksum runs over header, then
// body, so the sections need not sit in one buffer.
func putPrefix(dst, header, body []byte) {
	binary.BigEndian.PutUint16(dst, FrameMagic)
	binary.BigEndian.PutUint32(dst[2:], uint32(len(header)))
	binary.BigEndian.PutUint32(dst[6:], uint32(len(body)))
	sum := crc32.Update(crc32.Update(0, crc32.IEEETable, header), crc32.IEEETable, body)
	binary.BigEndian.PutUint32(dst[10:], sum)
}

// DecodeFrame validates and unwraps a complete frame held in memory.
// The declared lengths are bounds-checked against the actual payload
// before any slicing, the buffer must contain exactly one frame (a
// datagram-style contract: trailing bytes mean corruption, not a next
// frame), and the checksum is verified over the entire content.
func DecodeFrame(buf []byte) (header, body []byte, err error) {
	if len(buf) < FrameOverhead {
		return nil, nil, fmt.Errorf("%w: %d bytes, frame needs at least %d", ErrFrameTruncated, len(buf), FrameOverhead)
	}
	if m := binary.BigEndian.Uint16(buf); m != FrameMagic {
		return nil, nil, fmt.Errorf("%w: bad magic %#04x", ErrFrameCorrupt, m)
	}
	hlen := uint64(binary.BigEndian.Uint32(buf[2:]))
	blen := uint64(binary.BigEndian.Uint32(buf[6:]))
	declared := FrameOverhead + hlen + blen
	if declared > uint64(len(buf)) {
		return nil, nil, fmt.Errorf("%w: frame declares %d bytes, got %d", ErrFrameTruncated, declared, len(buf))
	}
	if declared < uint64(len(buf)) {
		return nil, nil, fmt.Errorf("%w: %d trailing bytes", ErrFrameCorrupt, uint64(len(buf))-declared)
	}
	want := binary.BigEndian.Uint32(buf[10:])
	if got := crc32.ChecksumIEEE(buf[FrameOverhead:]); got != want {
		return nil, nil, fmt.Errorf("%w: checksum %#08x, want %#08x", ErrFrameCorrupt, got, want)
	}
	return buf[FrameOverhead : FrameOverhead+hlen], buf[FrameOverhead+hlen:], nil
}

// SealFrame completes a frame built in place: buf holds FrameOverhead
// reserved bytes, then headerLen bytes of header, then the body. It
// writes the prefix over the reserved bytes and returns buf — the bytes
// EncodeFrame would have produced, without the sections ever existing
// apart from the frame.
func SealFrame(buf []byte, headerLen int) ([]byte, error) {
	header, body := buf[FrameOverhead:FrameOverhead+headerLen], buf[FrameOverhead+headerLen:]
	if err := checkSections(header, body); err != nil {
		return nil, err
	}
	putPrefix(buf, header, body)
	return buf, nil
}

// frameScratch is what reading and writing frames on one stream needs
// besides the payloads: the prefix being read, the prefix+header being
// written and the backing of the vectored write. A connection that
// carries one message at a time owns one and reuses it for every
// message, so the plumbing costs nothing per message.
type frameScratch struct {
	prefix [FrameOverhead]byte
	head   []byte // prefix+header write buffer, grow-only
	vec    [2][]byte
	bufs   net.Buffers // over vec; a field so that WriteTo's receiver is not a fresh heap object per write
	kept   []byte      // a reusing reader's frame buffer, grow-only up to maxKeptFrame
}

// maxKeptFrame is the largest read buffer a scratch keeps for its next
// read; a larger one is released before that read blocks, so one bulk
// frame pins nothing while the connection idles.
const maxKeptFrame = 64 << 10

// begin returns the write buffer with the prefix reserved: append the
// header to it and hand the result to write.
func (s *frameScratch) begin() []byte {
	if s.head == nil {
		s.head = make([]byte, FrameOverhead, 128)
	}
	return s.head[:FrameOverhead]
}

// write sends the frame whose header was appended to begin()'s buffer.
// See WriteFrame for the contract.
func (s *frameScratch) write(w io.Writer, head, body []byte) error {
	s.head = head
	header := head[FrameOverhead:]
	if err := checkSections(header, body); err != nil {
		return err
	}
	putPrefix(head, header, body)
	s.vec[0], s.vec[1] = head, body
	s.bufs = s.vec[:1]
	if len(body) > 0 {
		s.bufs = s.vec[:2]
	}
	total := len(head) + len(body)
	n, err := s.bufs.WriteTo(w)
	s.vec[1] = nil // the body is the caller's
	if err == nil && n != int64(total) {
		err = io.ErrShortWrite
	}
	if err != nil {
		return fmt.Errorf("%w: writing %d-byte frame: %w", ErrConn, total, err)
	}
	return nil
}

// read reads one frame; see ReadFrame for the contract. With reuse the
// frame lands in the scratch's own buffer and its sections are valid
// only until the next read; without, in a new buffer the caller keeps.
func (s *frameScratch) read(r io.Reader, maxBytes int64, reuse bool) (header, body []byte, err error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxFrameBytes
	}
	if cap(s.kept) > maxKeptFrame {
		s.kept = nil
	}
	if _, err := io.ReadFull(r, s.prefix[:]); err != nil {
		if err == io.EOF {
			return nil, nil, io.EOF
		}
		return nil, nil, fmt.Errorf("%w: reading frame prefix: %w", ErrFrameTruncated, err)
	}
	if m := binary.BigEndian.Uint16(s.prefix[:]); m != FrameMagic {
		return nil, nil, fmt.Errorf("%w: bad magic %#04x", ErrFrameCorrupt, m)
	}
	hlen := uint64(binary.BigEndian.Uint32(s.prefix[2:]))
	blen := uint64(binary.BigEndian.Uint32(s.prefix[6:]))
	total := FrameOverhead + hlen + blen
	if total > uint64(maxBytes) {
		return nil, nil, fmt.Errorf("%w: frame declares %d bytes, limit %d", ErrFrameOversize, total, maxBytes)
	}
	buf := s.kept
	if !reuse || uint64(cap(buf)) < total {
		buf = make([]byte, total)
		if reuse {
			s.kept = buf
		}
	}
	buf = buf[:total]
	copy(buf, s.prefix[:])
	if _, err := io.ReadFull(r, buf[FrameOverhead:]); err != nil {
		return nil, nil, fmt.Errorf("%w: reading %d-byte frame: %w", ErrFrameTruncated, total, err)
	}
	return DecodeFrame(buf)
}

// ReadFrame reads exactly one frame from a byte stream: the fixed
// prefix first, then — after the magic and the declared lengths pass
// validation against maxBytes — exactly the declared payload. Unlike
// DecodeFrame, bytes after the frame are not an error; they are the
// next frame and stay unread in r. maxBytes <= 0 means
// DefaultMaxFrameBytes. A stream that ends mid-frame fails with
// ErrFrameTruncated (wrapping the underlying I/O error); a clean EOF
// before any byte surfaces as io.EOF so connection loops can
// distinguish "peer closed" from "peer lied".
func ReadFrame(r io.Reader, maxBytes int64) (header, body []byte, err error) {
	var s frameScratch
	return s.read(r, maxBytes, false)
}

// WriteFrame writes the frame EncodeFrame would build — the same bytes —
// without building it: prefix and header go out from one small buffer
// and body from the caller's slice, as one vectored write. On a
// *net.TCPConn that is a single writev under the connection's write
// lock, so a concurrent-writer bug still shows up as whole interleaved
// frames, and a response body is never copied on its way to the socket;
// any other writer sees at most two Write calls. A failed or short write
// leaves part of a frame on the stream: the caller must drop the
// connection.
func WriteFrame(w io.Writer, header, body []byte) error {
	var s frameScratch
	return s.write(w, append(s.begin(), header...), body)
}
