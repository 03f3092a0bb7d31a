// Rank over packed MSB-first bitmaps. The k³-tree REGION codec
// (internal/rencode) navigates its per-level node bitmaps with rank₁:
// the children of the j-th mixed node at one level start at slot
// degree·rank₁(M, j) of the next. Rank1 is a one-shot scan; the codec
// keeps no directory over it, because each of its sweeps asks a level
// for slots in increasing order and counts only the bits since the last.
package bitio

import (
	"encoding/binary"
	"math/bits"
)

// Rank1 returns the number of 1 bits among the first i bits of buf,
// in the same MSB-first bit order Writer and Reader use. i is clamped
// to [0, len(buf)*8].
func Rank1(buf []byte, i int) int {
	if i <= 0 {
		return 0
	}
	if max := len(buf) * 8; i > max {
		i = max
	}
	nb := i >> 3
	n := 0
	j := 0
	for ; j+8 <= nb; j += 8 {
		n += bits.OnesCount64(binary.BigEndian.Uint64(buf[j:]))
	}
	for ; j < nb; j++ {
		n += bits.OnesCount8(buf[j])
	}
	if r := uint(i & 7); r != 0 {
		n += bits.OnesCount8(buf[nb] >> (8 - r))
	}
	return n
}
