// Rank over packed MSB-first bitmaps. The k³-tree REGION codec
// (internal/rencode) navigates its per-level node bitmaps with rank₁:
// the children of the j-th mixed node at one level start at slot
// degree·rank₁(M, j) of the next. Rank1 is a one-shot scan; RankIndex
// precomputes a superblock directory so repeated probes over the same
// bitmap are O(1) plus a bounded 64-byte tail scan.
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

// rankSuperBits is the superblock width of RankIndex: one absolute
// popcount is kept per 512 bits (64 bytes), a 6.25% directory overhead
// at 4 bytes per entry, and every query scans at most 8 words past the
// superblock boundary.
const rankSuperBits = 512

// RankIndex answers Rank1 queries over a fixed bitmap in O(1) via a
// precomputed superblock directory. The index aliases the bitmap it was
// built over; the caller must not mutate the bytes afterwards.
type RankIndex struct {
	buf   []byte
	nbits int
	super []uint32 // super[i] = ones among the first i*rankSuperBits bits
	ones  int
}

// MakeRankIndex builds a directory over the first nbits bits of buf,
// nbits clamped to [0, len(buf)*8], taken from the front of dir when it
// fits; the rest of dir is returned, so a caller indexing many bitmaps
// can carve every directory out of one slice.
func MakeRankIndex(buf []byte, nbits int, dir []uint32) (RankIndex, []uint32) {
	if nbits < 0 {
		nbits = 0
	}
	if max := len(buf) * 8; nbits > max {
		nbits = max
	}
	nSuper := (nbits + rankSuperBits - 1) / rankSuperBits
	x := RankIndex{buf: buf, nbits: nbits}
	if len(dir) > nSuper {
		x.super, dir = dir[:nSuper+1:nSuper+1], dir[nSuper+1:]
	} else {
		x.super = make([]uint32, nSuper+1)
	}
	run := 0
	for i := 0; i < nSuper; i++ {
		x.super[i] = uint32(run)
		lo := i * rankSuperBits
		hi := lo + rankSuperBits
		if hi > nbits {
			hi = nbits
		}
		run += rank1Range(buf, lo, hi)
	}
	x.super[nSuper] = uint32(run)
	x.ones = run
	return x, dir
}

// rank1Range counts 1 bits in bit positions [lo, hi) of buf; lo is
// byte-aligned by construction of the callers.
func rank1Range(buf []byte, lo, hi int) int {
	return Rank1(buf[lo>>3:], hi-lo)
}

// Ones returns the total number of 1 bits covered by the index.
func (x *RankIndex) Ones() int { return x.ones }

// Rank1 returns the number of 1 bits among the first i bits.
func (x *RankIndex) Rank1(i int) int {
	if i <= 0 {
		return 0
	}
	if i >= x.nbits {
		return x.ones
	}
	s := i / rankSuperBits
	return int(x.super[s]) + rank1Range(x.buf, s*rankSuperBits, i)
}
