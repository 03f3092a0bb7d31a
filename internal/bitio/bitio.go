// Package bitio provides MSB-first bit-level writing and reading over
// byte slices. The REGION codecs (Elias γ/δ, Golomb) are bit codes, so
// they need sub-byte I/O; the Long Field Manager then stores the packed
// bytes.
//
// Both sides work on a 64-bit window rather than a bit at a time: the
// Writer gathers bits in a word and stores the word when it is full, and
// the Reader loads up to eight bytes into a word at once, so a
// fixed-width field is a shift and a mask and a unary count is one
// leading-zero count (math/bits.LeadingZeros64) per window. The Elias
// γ-code is read here too (ReadGamma): on the window it is one
// leading-zero count and one shift.
package bitio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// ErrUnexpectedEOF is returned when a read runs past the end of the input.
var ErrUnexpectedEOF = errors.New("bitio: unexpected end of input")

// Writer accumulates bits most-significant-first into a buffer. The
// zero value is ready to use.
type Writer struct {
	buf []byte // whole words written
	acc uint64 // pending bits in its top n bits, zeros below them
	n   uint   // pending bits, 0..63 between calls
}

// NewWriter returns a Writer whose bits follow buf's bytes. It writes
// into buf's spare capacity, so a buf with room for what will be
// written takes it in place.
func NewWriter(buf []byte) *Writer { return &Writer{buf: buf} }

// WriteBit appends a single bit (any nonzero bit value writes 1).
func (w *Writer) WriteBit(bit uint) {
	if bit != 0 {
		w.acc |= 1 << (63 - w.n)
	}
	if w.n++; w.n == 64 {
		w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc)
		w.acc, w.n = 0, 0
	}
}

// WriteBits appends the low n bits of v, most significant first.
// n must be in [0, 64].
func (w *Writer) WriteBits(v uint64, n int) {
	if uint(n) > 64 {
		panic("bitio: WriteBits width outside [0, 64]")
	}
	v &= 1<<n - 1
	free := 64 - w.n
	if uint(n) < free {
		w.acc |= v << (free - uint(n))
		w.n += uint(n)
		return
	}
	w.buf = binary.BigEndian.AppendUint64(w.buf, w.acc|v>>(uint(n)-free))
	w.n = uint(n) - free
	w.acc = v << (64 - w.n)
}

// WriteUnary appends n in unary: n zero bits followed by a one bit.
func (w *Writer) WriteUnary(n int) {
	for ; n >= 64; n -= 64 {
		w.WriteBits(0, 64)
	}
	w.WriteBits(1, n+1)
}

// Len returns the number of bits written so far, counting the bytes of
// NewWriter's buf.
func (w *Writer) Len() int { return len(w.buf)*8 + int(w.n) }

// Bytes returns the packed bytes; unused trailing bits are zero. The
// returned slice aliases the writer's buffer when it has room for the
// pending bits, and is valid until the next write.
func (w *Writer) Bytes() []byte {
	out := w.buf
	for acc, k := w.acc, int(w.n); k > 0; acc, k = acc<<8, k-8 {
		out = append(out, byte(acc>>56))
	}
	return out
}

// Reset truncates the writer to empty, retaining the buffer.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.acc, w.n = 0, 0
}

// Reader consumes bits most-significant-first from a byte slice.
type Reader struct {
	buf []byte
	// win holds the next nwin bits of the stream in its top bits. The
	// bits below them are zero or the bytes of buf that follow, in place.
	win  uint64
	nwin uint
	next int // bits of the stream loaded into win so far
	end  int // total bits in the stream
}

// NewReader returns a Reader over buf. If nbits >= 0 it limits the
// stream to the first nbits bits; pass -1 to use all of buf.
func NewReader(buf []byte, nbits int) *Reader {
	if nbits < 0 || nbits > len(buf)*8 {
		nbits = len(buf) * 8
	}
	return &Reader{buf: buf, end: nbits}
}

// fill tops the window up with whole bytes, to at least 57 bits or to
// the end of the stream. next is a whole number of bytes until it
// reaches the end.
func (r *Reader) fill() {
	i := r.next >> 3
	if i+8 <= len(r.buf) {
		r.win |= binary.BigEndian.Uint64(r.buf[i:]) >> r.nwin
		k := min(int(64-r.nwin)&^7, r.end-r.next)
		r.nwin += uint(k)
		r.next += k
		return
	}
	for ; r.nwin <= 56 && r.next < r.end; i++ {
		r.win |= uint64(r.buf[i]) << (56 - r.nwin)
		k := min(8, r.end-r.next)
		r.nwin += uint(k)
		r.next += k
	}
}

// consume drops the next n bits of the window, n ≤ nwin.
func (r *Reader) consume(n uint) {
	r.win <<= n
	r.nwin -= n
}

// eof moves the reader to the end of its stream, as reading through to
// it bit by bit would, and reports the read that ran past it.
func (r *Reader) eof() error {
	r.win, r.nwin, r.next = 0, 0, r.end
	return ErrUnexpectedEOF
}

// ReadBits returns the next n bits as the low bits of a uint64,
// most significant first. n must be in [0, 64]. A read past the end
// leaves the reader at the end.
func (r *Reader) ReadBits(n int) (uint64, error) {
	if uint(n) <= r.nwin {
		v := r.win >> (64 - uint(n))
		r.consume(uint(n))
		return v, nil
	}
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("bitio: ReadBits with n=%d", n))
	}
	if n > r.Remaining() {
		return 0, r.eof()
	}
	if n <= 57 {
		return r.take(uint(n)), nil
	}
	hi := r.take(uint(n) - 32) // more than one fill promises: two takes
	return hi<<32 | r.take(32), nil
}

// take returns the next n bits, n ≤ 57, which the stream holds.
func (r *Reader) take(n uint) uint64 {
	if n > r.nwin {
		r.fill()
	}
	v := r.win >> (64 - n)
	r.consume(n)
	return v
}

// ReadUnary reads a unary-coded count: the number of zero bits before
// the next one bit. A count that runs past the end leaves the reader at
// the end.
func (r *Reader) ReadUnary() (int, error) {
	n := 0
	for {
		if z := uint(bits.LeadingZeros64(r.win)); z < r.nwin {
			r.consume(z + 1)
			return n + int(z), nil
		}
		if r.next == r.end {
			return 0, r.eof()
		}
		n += int(r.nwin)
		r.consume(r.nwin)
		r.fill()
	}
}

// ReadGamma reads an Elias γ code, the REGION codecs' integer code: n
// zero bits, then x's n+1 bits, the first of them the one that ends the
// zeros (x ≥ 1). It is read here rather than as ReadUnary then ReadBits
// because on the window a code is one leading-zero count and one shift
// when it lies there whole — always below 2^28, after at most one fill —
// and that is the inner loop of every REGION decode. Past that it is
// ReadUnary then ReadBits, with their positions and errors. A count of
// 64 or more zeros is refused.
func (r *Reader) ReadGamma() (uint64, error) {
	z := uint(bits.LeadingZeros64(r.win))
	if 2*z >= r.nwin {
		r.fill()
		z = uint(bits.LeadingZeros64(r.win))
	}
	if 2*z < r.nwin {
		v := r.win >> (63 - 2*z)
		r.consume(2*z + 1)
		return v, nil
	}
	n, err := r.ReadUnary()
	if err != nil {
		return 0, err
	}
	if n > 63 {
		return 0, fmt.Errorf("bitio: gamma length %d out of range", n)
	}
	low, err := r.ReadBits(n)
	if err != nil {
		return 0, err
	}
	return 1<<n | low, nil
}

// Remaining reports how many bits are left to read.
func (r *Reader) Remaining() int { return r.end - r.next + int(r.nwin) }
