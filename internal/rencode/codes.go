package rencode

import (
	"math/bits"

	"qbism/internal/bitio"
)

// The integer code of the Elias method. It encodes integers x >= 1
// (delta lengths are never zero); package zoo holds the paper's others.

// writeGamma writes x with the Elias γ-code: ⌊log x⌋ zero bits, a one
// bit, then the ⌊log x⌋ low-order bits of x (Section 4.2 of the paper,
// after Elias [8]). bitio.Reader.ReadGamma reads it back.
func writeGamma(w *bitio.Writer, x uint64) {
	if x == 0 {
		panic("rencode: gamma code undefined for 0")
	}
	n := bits.Len64(x) - 1 // ⌊log2 x⌋
	if n < 32 {
		// The zeros are x's own leading zeros in a 2n+1-bit field.
		w.WriteBits(x, 2*n+1)
		return
	}
	w.WriteUnary(n)
	w.WriteBits(x&(1<<n-1), n)
}

// gammaBits returns the γ-code length of x in bits: 2⌊log x⌋ + 1.
func gammaBits(x uint64) int {
	return 2*(bits.Len64(x)-1) + 1
}
