package bitio

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadBits(t *testing.T) {
	var w Writer
	w.WriteBits(0b101, 3)
	w.WriteBits(0xff, 8)
	w.WriteBits(0, 5)
	if w.Len() != 16 {
		t.Fatalf("Len = %d, want 16", w.Len())
	}
	r := NewReader(w.Bytes(), w.Len())
	if v, _ := r.ReadBits(3); v != 0b101 {
		t.Errorf("first field = %b", v)
	}
	if v, _ := r.ReadBits(8); v != 0xff {
		t.Errorf("second field = %x", v)
	}
	if v, _ := r.ReadBits(5); v != 0 {
		t.Errorf("third field = %d", v)
	}
	if _, err := r.ReadBits(1); err != ErrUnexpectedEOF {
		t.Errorf("read past end: err = %v", err)
	}
}

func TestUnary(t *testing.T) {
	var w Writer
	for n := 0; n < 20; n++ {
		w.WriteUnary(n)
	}
	r := NewReader(w.Bytes(), w.Len())
	for n := 0; n < 20; n++ {
		got, err := r.ReadUnary()
		if err != nil || got != n {
			t.Fatalf("ReadUnary = %d,%v want %d", got, err, n)
		}
	}
}

func TestUnaryTruncated(t *testing.T) {
	var w Writer
	w.WriteBits(0, 8) // eight zero bits, no terminating 1
	r := NewReader(w.Bytes(), w.Len())
	if _, err := r.ReadUnary(); err != ErrUnexpectedEOF {
		t.Errorf("truncated unary: err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestBitLimit(t *testing.T) {
	r := NewReader([]byte{0xff}, 3)
	if r.Remaining() != 3 {
		t.Fatalf("Remaining = %d", r.Remaining())
	}
	if v, err := r.ReadBits(3); err != nil || v != 0b111 {
		t.Fatalf("ReadBits = %d,%v", v, err)
	}
	if _, err := r.ReadBits(1); err != ErrUnexpectedEOF {
		t.Errorf("limited reader should hit EOF, got %v", err)
	}
	// Negative limit means "all bits".
	r2 := NewReader([]byte{0xff}, -1)
	if r2.Remaining() != 8 {
		t.Errorf("Remaining = %d, want 8", r2.Remaining())
	}
}

func TestReset(t *testing.T) {
	var w Writer
	w.WriteBits(0xdead, 16)
	w.Reset()
	if w.Len() != 0 || len(w.Bytes()) != 0 {
		t.Fatal("Reset did not clear writer")
	}
	w.WriteBit(1)
	if w.Bytes()[0] != 0x80 {
		t.Errorf("after reset write: %x", w.Bytes())
	}
}

func TestMSBFirstLayout(t *testing.T) {
	var w Writer
	w.WriteBit(1)
	w.WriteBit(0)
	w.WriteBit(1)
	if got := w.Bytes()[0]; got != 0b1010_0000 {
		t.Errorf("byte = %08b, want 10100000", got)
	}
}

// TestRoundTripQuick writes random-width fields and reads them back.
func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%50) + 1
		vals := make([]uint64, count)
		widths := make([]int, count)
		var w Writer
		for i := range vals {
			widths[i] = rng.Intn(64) + 1
			vals[i] = rng.Uint64() & (^uint64(0) >> (64 - widths[i]))
			w.WriteBits(vals[i], widths[i])
		}
		r := NewReader(w.Bytes(), w.Len())
		for i := range vals {
			got, err := r.ReadBits(widths[i])
			if err != nil || got != vals[i] {
				return false
			}
		}
		return r.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWriteBitsPanicsOnBadWidth(t *testing.T) {
	var w Writer
	defer func() {
		if recover() == nil {
			t.Error("expected panic for n=65")
		}
	}()
	w.WriteBits(0, 65)
}

// refWriter and refReader are the bit-at-a-time Writer and Reader the
// word-level ones replaced, kept as the reference they must agree with.
type refWriter struct {
	buf  []byte
	nBit uint8 // bits already used in the final byte, 0..7
}

func (w *refWriter) WriteBit(bit uint) {
	if w.nBit == 0 {
		w.buf = append(w.buf, 0)
	}
	if bit != 0 {
		w.buf[len(w.buf)-1] |= 1 << (7 - w.nBit)
	}
	w.nBit = (w.nBit + 1) & 7
}

func (w *refWriter) WriteBits(v uint64, n int) {
	for i := n - 1; i >= 0; i-- {
		w.WriteBit(uint(v >> i & 1))
	}
}

func (w *refWriter) WriteUnary(n int) {
	for i := 0; i < n; i++ {
		w.WriteBit(0)
	}
	w.WriteBit(1)
}

func (w *refWriter) Len() int {
	if w.nBit == 0 {
		return len(w.buf) * 8
	}
	return (len(w.buf)-1)*8 + int(w.nBit)
}

type refReader struct {
	buf      []byte
	pos, end int
}

// bitLen is the number of bits w holds, counting the bytes of
// NewWriter's buf: what a Reader over w.Bytes() is given.
func bitLen(w *Writer) int { return len(w.buf)*8 + int(w.n) }

func newRefReader(buf []byte, nbits int) *refReader {
	if nbits < 0 || nbits > len(buf)*8 {
		nbits = len(buf) * 8
	}
	return &refReader{buf: buf, end: nbits}
}

func (r *refReader) ReadBit() (uint, error) {
	if r.pos >= r.end {
		return 0, ErrUnexpectedEOF
	}
	b := r.buf[r.pos>>3] >> (7 - uint(r.pos&7)) & 1
	r.pos++
	return uint(b), nil
}

func (r *refReader) ReadBits(n int) (uint64, error) {
	var v uint64
	for i := 0; i < n; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | uint64(b)
	}
	return v, nil
}

func (r *refReader) ReadUnary() (int, error) {
	n := 0
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			return n, nil
		}
		n++
	}
}

func (r *refReader) Remaining() int { return r.end - r.pos }

// ReadGamma is the γ read as the unary and fixed-width reads it stands
// for.
func (r *refReader) ReadGamma() (uint64, error) {
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

// bitOp is one call on a Writer or a Reader: a bit, a field of width
// 0–64, a unary count, some of them longer than a word, or (reads only)
// a γ code.
type bitOp struct {
	kind int // 0 bit, 1 bits, 2 unary, 3 γ
	v    uint64
	n    int
}

func randOps(rng *rand.Rand, count int) []bitOp {
	ops := make([]bitOp, count)
	for i := range ops {
		switch k := rng.Intn(3); k {
		case 0:
			ops[i] = bitOp{kind: k, v: uint64(rng.Intn(3))}
		case 1:
			ops[i] = bitOp{kind: k, v: rng.Uint64(), n: rng.Intn(65)}
		default:
			n := rng.Intn(12)
			if rng.Intn(4) == 0 {
				n = 60 + rng.Intn(150)
			}
			ops[i] = bitOp{kind: k, n: n}
		}
	}
	return ops
}

// TestWriterMatchesReference: random bits, fields of every width and
// unary counts past a word, written after a prefix of whole bytes or
// none, give the reference's bytes and length after every call, with
// Bytes read between calls.
func TestWriterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 300; iter++ {
		prefix := make([]byte, rng.Intn(3), 64)
		for i := range prefix {
			prefix[i] = byte(rng.Intn(256))
		}
		w := NewWriter(prefix)
		ref := &refWriter{buf: append([]byte(nil), prefix...)}
		for i, op := range randOps(rng, 1+rng.Intn(40)) {
			switch op.kind {
			case 0:
				w.WriteBit(uint(op.v))
				ref.WriteBit(uint(op.v))
			case 1:
				w.WriteBits(op.v, op.n)
				ref.WriteBits(op.v, op.n)
			default:
				w.WriteUnary(op.n)
				ref.WriteUnary(op.n)
			}
			if w.Len() != ref.Len() || !bytes.Equal(w.Bytes(), ref.buf) {
				t.Fatalf("iter %d op %d %+v: Len %d bytes %x, reference %d %x", iter, i, op, w.Len(), w.Bytes(), ref.Len(), ref.buf)
			}
		}
	}
}

// TestReaderMatchesReference: the same call sequence on the word-level
// Reader and the reference gives the same values, errors and remaining
// bits after every call, with the stream cut at every bit offset, so
// every read meets EOF at every position inside it. ReadGamma is held to
// ReadUnary then ReadBits on the reference.
func TestReaderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 400; iter++ {
		var ref refWriter
		for _, op := range randOps(rng, 1+rng.Intn(12)) {
			switch op.kind {
			case 0:
				ref.WriteBit(uint(op.v))
			case 1:
				ref.WriteBits(op.v, op.n)
			default:
				ref.WriteUnary(op.n)
			}
		}
		data := ref.buf
		reads := randOps(rng, 4+rng.Intn(12))
		for i := range reads {
			if rng.Intn(3) == 0 {
				reads[i].kind = 3
			}
		}
		for limit := -1; limit <= len(data)*8; limit++ {
			r, want := NewReader(data, limit), newRefReader(data, limit)
			for i, op := range reads {
				var got, exp uint64
				var err, expErr error
				switch op.kind {
				case 0:
					var e uint
					got, err = r.ReadBits(1)
					e, expErr = want.ReadBit()
					exp = uint64(e)
				case 1:
					got, err = r.ReadBits(op.n)
					exp, expErr = want.ReadBits(op.n)
				case 2:
					var g, e int
					g, err = r.ReadUnary()
					e, expErr = want.ReadUnary()
					got, exp = uint64(g), uint64(e)
				default:
					got, err = r.ReadGamma()
					exp, expErr = want.ReadGamma()
				}
				if got != exp || fmt.Sprint(err) != fmt.Sprint(expErr) || r.Remaining() != want.Remaining() {
					t.Fatalf("iter %d limit %d read %d %+v: %d, %v, %d left; reference %d, %v, %d left",
						iter, limit, i, op, got, err, r.Remaining(), exp, expErr, want.Remaining())
				}
			}
		}
	}
}

// TestWriterBytesInPlace: a Writer over a buffer with room writes its
// bits into that buffer's backing array and allocates nothing.
func TestWriterBytesInPlace(t *testing.T) {
	buf := make([]byte, 2, 64)
	allocs := testing.AllocsPerRun(20, func() {
		w := NewWriter(buf[:2])
		for i := 0; i < 40; i++ {
			w.WriteUnary(i % 9)
			w.WriteBits(uint64(i), i%7)
		}
		if out := w.Bytes(); &out[0] != &buf[0] {
			t.Fatal("Bytes left the caller's buffer")
		}
	})
	if allocs != 0 {
		t.Errorf("%.0f allocs writing into a buffer with room", allocs)
	}
}

// TestReadGammaLengthLimit: a γ code of 63 zeros is the largest, read
// whole; 64 zeros are refused, as on the reference, after the unary
// count.
func TestReadGammaLengthLimit(t *testing.T) {
	for _, zeros := range []int{62, 63, 64, 65} {
		var w refWriter
		w.WriteBits(0xA5, 5) // off the byte boundary
		w.WriteUnary(zeros)
		w.WriteBits(^uint64(0), 64)
		w.WriteBits(^uint64(0), 8)
		r, want := NewReader(w.buf, w.Len()), newRefReader(w.buf, w.Len())
		r.ReadBits(5)
		want.ReadBits(5)
		got, err := r.ReadGamma()
		exp, expErr := want.ReadGamma()
		if got != exp || fmt.Sprint(err) != fmt.Sprint(expErr) || r.Remaining() != want.Remaining() {
			t.Errorf("%d zeros: %d, %v, %d left; reference %d, %v, %d left", zeros, got, err, r.Remaining(), exp, expErr, want.Remaining())
		}
		if (expErr == nil) != (zeros < 64) {
			t.Errorf("%d zeros: reference error %v", zeros, expErr)
		}
	}
}
