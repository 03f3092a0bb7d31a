package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"slices"
)

// A frame is the layout every payload crossing the seam is sealed in:
//
//	magic(2) | headerLen(4) | bodyLen(4) | crc32(4) | header | body
//
// It has two roles, and each payload byte is summed once a side. The
// application frame (EncodeFrame, SealFrame, DecodeFrame) is the
// payload: a spec or meta header and nothing or the DataRegion blob
// (internal/medserver/wire.go). Its CRC32 (IEEE) covers header and body
// and is checked by the one decoder that reads it, on either transport.
// On a TCP stream it is the body of an envelope (frameScratch) whose
// header is the call or status header (tcp.go) and whose CRC covers
// only its two length fields and that header.

// FrameMagic marks a frame ("QM").
const FrameMagic uint16 = 0x514D

// FrameOverhead is the fixed frame prefix size in bytes.
const FrameOverhead = 14

// DefaultMaxFrameBytes bounds the frame a stream reader accepts: a
// full-study reply at the paper's 128³ grid is ~2 MB, so 64 MiB refuses
// only a forged length, before anything is allocated for it.
const DefaultMaxFrameBytes = 64 << 20

// Typed frame failures: truncation and corruption are damage in flight,
// retryable; oversize is a length past a bound, refused before allocation.
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

// EncodeFrame seals header and body in a new frame. A section whose
// length the frame's uint32 fields cannot declare is ErrFrameOversize.
func EncodeFrame(header, body []byte) ([]byte, error) {
	out := make([]byte, FrameOverhead+len(header)+len(body))
	copy(out[FrameOverhead:], header)
	copy(out[FrameOverhead+len(header):], body)
	return SealFrame(out, len(header))
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

// putLengths writes the magic and the lengths of header and body into
// dst[:10]; the checksum after them is the frame's role's.
func putLengths(dst, header, body []byte) {
	binary.BigEndian.PutUint16(dst, FrameMagic)
	binary.BigEndian.PutUint32(dst[2:], uint32(len(header)))
	binary.BigEndian.PutUint32(dst[6:], uint32(len(body)))
}

// envelopeSum is a stream envelope's checksum: its two length fields,
// prefix[2:10], then its header.
func envelopeSum(prefix, header []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(prefix[2:10]), crc32.IEEETable, header)
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

// SealFrame completes a frame built in place — FrameOverhead reserved
// bytes, headerLen bytes of header, then the body — by writing its
// prefix, and returns buf: EncodeFrame's bytes, with no copy.
func SealFrame(buf []byte, headerLen int) ([]byte, error) {
	header, body := buf[FrameOverhead:FrameOverhead+headerLen], buf[FrameOverhead+headerLen:]
	if err := checkSections(header, body); err != nil {
		return nil, err
	}
	putLengths(buf, header, body)
	binary.BigEndian.PutUint32(buf[10:], crc32.Update(crc32.ChecksumIEEE(header), crc32.IEEETable, body))
	return buf, nil
}

// frameScratch is what reading and writing envelopes on one stream needs
// besides the payloads. A connection that carries one message at a time
// owns one and reuses it, so the plumbing costs nothing per message.
type frameScratch struct {
	prefix [FrameOverhead]byte
	in     []byte // the header being read, grow-only up to maxEnvelopeHeader
	head   []byte // prefix+header write buffer, grow-only
	vec    [2][]byte
	bufs   net.Buffers // over vec; a field so that WriteTo's receiver is not a fresh heap object per write
	kept   []byte      // a reusing reader's body buffer, grow-only up to maxKeptFrame
}

// maxEnvelopeHeader bounds an envelope's header: the largest status
// header a server writes.
const maxEnvelopeHeader = statusSize + maxStatusText

// maxKeptFrame is the largest body buffer a scratch keeps for its next
// read; a larger one is released before that read blocks, so one bulk
// body pins nothing while the connection idles.
const maxKeptFrame = 64 << 10

// begin returns the write buffer with the prefix reserved: append the
// header to it and hand the result to write.
func (s *frameScratch) begin() []byte {
	if s.head == nil {
		s.head = make([]byte, FrameOverhead, 128)
	}
	return s.head[:FrameOverhead]
}

// write sends the envelope whose header was appended to begin()'s
// buffer, carrying body, as one vectored write: prefix and header from
// head, the body from the caller's slice, never copied or summed. On a
// *net.TCPConn that is a single writev under the connection's write
// lock, so a concurrent-writer bug still shows up as whole interleaved
// frames; any other writer sees at most two Write calls. A failed or
// short write leaves part of a frame on the stream: the caller must drop
// the connection.
func (s *frameScratch) write(w io.Writer, head, body []byte) error {
	s.head = head
	header := head[FrameOverhead:]
	if err := checkSections(header, body); err != nil {
		return err
	}
	putLengths(head, header, body)
	binary.BigEndian.PutUint32(head[10:], envelopeSum(head, header))
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

// read reads exactly one envelope from a byte stream: the prefix, then
// a header of at most maxEnvelopeHeader bytes, whose checksum must
// match, and only then a body within DefaultMaxFrameBytes — so damage to
// the prefix or header costs no body read or allocation. The body comes
// back unverified: its payload is checked by the decoder that reads it.
// Bytes after the frame stay unread in r. A stream that ends mid-frame
// is ErrFrameTruncated; a clean EOF before any byte is io.EOF, so a
// connection loop tells "peer closed" from "peer lied". The header is
// valid until the next read, and so is the body with reuse, which reads
// it into the scratch's own buffer; without, it is a new buffer.
func (s *frameScratch) read(r io.Reader, reuse bool) (header, body []byte, err error) {
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
	hlen := binary.BigEndian.Uint32(s.prefix[2:])
	blen := binary.BigEndian.Uint32(s.prefix[6:])
	if hlen > maxEnvelopeHeader {
		return nil, nil, fmt.Errorf("%w: header declares %d bytes, limit %d", ErrFrameCorrupt, hlen, maxEnvelopeHeader)
	}
	s.in = slices.Grow(s.in[:0], int(hlen))
	header = s.in[:hlen]
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, nil, fmt.Errorf("%w: reading %d-byte frame header: %w", ErrFrameTruncated, hlen, err)
	}
	if got, want := envelopeSum(s.prefix[:], header), binary.BigEndian.Uint32(s.prefix[10:]); got != want {
		return nil, nil, fmt.Errorf("%w: header checksum %#08x, want %#08x", ErrFrameCorrupt, got, want)
	}
	if total := FrameOverhead + uint64(hlen) + uint64(blen); total > DefaultMaxFrameBytes {
		return nil, nil, fmt.Errorf("%w: frame declares %d bytes, limit %d", ErrFrameOversize, total, DefaultMaxFrameBytes)
	}
	if reuse {
		s.kept = slices.Grow(s.kept[:0], int(blen))
		body = s.kept[:blen]
	} else {
		body = make([]byte, blen)
	}
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, nil, fmt.Errorf("%w: reading %d-byte frame body: %w", ErrFrameTruncated, blen, err)
	}
	return header, body, nil
}
