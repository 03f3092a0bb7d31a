package zoo

import (
	"fmt"
	"math/bits"

	"qbism/internal/bitio"
	"qbism/internal/region"
)

// Integer codes used by the zoo's delta-stream methods. All encode
// integers x >= 1 (delta lengths are never zero).

// writeDelta writes x with the Elias δ-code: the bit length of x is
// itself γ-coded, followed by the low bits of x.
func writeDelta(w *bitio.Writer, x uint64) {
	if x == 0 {
		panic("zoo: delta code undefined for 0")
	}
	n := bits.Len64(x) - 1
	l := uint64(n) + 1 // at most 64, so its γ-code fits one field
	w.WriteBits(l, gammaBits(l))
	w.WriteBits(x&(1<<n-1), n)
}

// readDelta reads an Elias δ-coded integer.
func readDelta(r *bitio.Reader) (uint64, error) {
	l, err := r.ReadGamma()
	if err != nil {
		return 0, err
	}
	if l-1 > 63 { // compared unsigned: a length past 2^63 must not wrap negative
		return 0, fmt.Errorf("delta length %d out of range", l-1)
	}
	n := int(l - 1)
	low, err := r.ReadBits(n)
	if err != nil {
		return 0, err
	}
	return 1<<n | low, nil
}

// deltaBits returns the δ-code length of x in bits.
func deltaBits(x uint64) int {
	n := bits.Len64(x) - 1
	return gammaBits(uint64(n)+1) + n
}

// writeRice writes x-1 with the Rice code of parameter k: quotient in
// unary, remainder in k bits. (x >= 1, so we code x-1 >= 0.)
func writeRice(w *bitio.Writer, x uint64, k uint8) {
	if x == 0 {
		panic("zoo: rice code input must be >= 1")
	}
	v := x - 1
	w.WriteUnary(int(v >> k))
	w.WriteBits(v&(1<<k-1), int(k))
}

// readRice reads a Rice-coded integer written by writeRice.
func readRice(r *bitio.Reader, k uint8) (uint64, error) {
	q, err := r.ReadUnary()
	if err != nil {
		return 0, err
	}
	rem, err := r.ReadBits(int(k))
	if err != nil {
		return 0, err
	}
	return uint64(q)<<k + rem + 1, nil
}

// riceBits returns the Rice code length of x with parameter k.
func riceBits(x uint64, k uint8) int {
	return int((x-1)>>k) + 1 + int(k)
}

// writeVarint writes x as a LEB128 varint (7 data bits per byte,
// high bit = continuation), bit-aligned into the stream.
func writeVarint(w *bitio.Writer, x uint64) {
	for {
		b := x & 0x7f
		x >>= 7
		if x != 0 {
			w.WriteBits(1, 1)
			w.WriteBits(b, 7)
		} else {
			w.WriteBits(0, 1)
			w.WriteBits(b, 7)
			return
		}
	}
}

// readVarint reads a varint written by writeVarint.
func readVarint(r *bitio.Reader) (uint64, error) {
	var x uint64
	for shift := 0; ; shift += 7 {
		if shift > 63 {
			return 0, fmt.Errorf("varint too long")
		}
		cont, err := r.ReadBits(1)
		if err != nil {
			return 0, err
		}
		b, err := r.ReadBits(7)
		if err != nil {
			return 0, err
		}
		x |= b << shift
		if cont == 0 {
			return x, nil
		}
	}
}

// varintBits returns the varint length of x in bits.
func varintBits(x uint64) int {
	n := 8
	for x >>= 7; x != 0; x >>= 7 {
		n += 8
	}
	return n
}

// gammaBits returns the γ-code length of x in bits: 2⌊log x⌋ + 1.
func gammaBits(x uint64) int {
	return 2*(bits.Len64(x)-1) + 1
}

// riceParam picks the Rice parameter k ≈ log2(mean delta length) for
// r's deltas.
func riceParam(r *region.Region) uint8 {
	var total, n uint64
	r.EachDelta(func(d region.Delta) { total, n = total+d.Length, n+1 })
	if n == 0 {
		return 0
	}
	mean := total / n
	if mean < 1 {
		mean = 1
	}
	k := uint8(bits.Len64(mean) - 1)
	if k > 32 {
		k = 32
	}
	return k
}
