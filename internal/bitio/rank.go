// Rank/select over packed MSB-first bitmaps. The k³-tree REGION codec
// (internal/rencode) navigates its per-level node bitmaps with rank₁:
// the children of the j-th mixed node at one level start at slot
// degree·rank₁(M, j) of the next. Rank1/Select1 are one-shot scans;
// RankIndex precomputes a superblock directory so repeated probes over
// the same bitmap are O(1) plus a bounded 64-byte tail scan.
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

// Select1 returns the bit position of the k-th 1 bit (k is 0-based),
// or -1 if buf holds k or fewer 1 bits.
func Select1(buf []byte, k int) int {
	if k < 0 {
		return -1
	}
	for j, b := range buf {
		c := bits.OnesCount8(b)
		if k < c {
			for p := 0; p < 8; p++ {
				if b&(0x80>>uint(p)) != 0 {
					if k == 0 {
						return j*8 + p
					}
					k--
				}
			}
		}
		k -= c
	}
	return -1
}

// rankSuperBits is the superblock width of RankIndex: one absolute
// popcount is kept per 512 bits (64 bytes), a 6.25% directory overhead
// at 4 bytes per entry, and every query scans at most 8 words past the
// superblock boundary.
const rankSuperBits = 512

// RankIndex answers Rank1/Select1 queries over a fixed bitmap in O(1)
// (rank) and O(log n) (select) via a precomputed superblock directory.
// The index aliases the bitmap it was built over; the caller must not
// mutate the bytes afterwards.
type RankIndex struct {
	buf   []byte
	nbits int
	super []uint32 // super[i] = ones among the first i*rankSuperBits bits
	ones  int
}

// NewRankIndex builds a directory over the first nbits bits of buf.
// nbits is clamped to [0, len(buf)*8].
func NewRankIndex(buf []byte, nbits int) *RankIndex {
	x, _ := MakeRankIndex(buf, nbits, nil)
	return &x
}

// MakeRankIndex is NewRankIndex by value, with the directory taken
// from the front of dir when it fits; the rest of dir is returned, so a
// caller indexing many bitmaps can carve every directory out of one
// slice.
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

// NBits returns the number of bits covered by the index.
func (x *RankIndex) NBits() int { return x.nbits }

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

// Select1 returns the bit position of the k-th 1 bit (0-based), or -1
// if the bitmap holds k or fewer 1 bits. It binary-searches the
// superblock directory, then scans one superblock.
func (x *RankIndex) Select1(k int) int {
	if k < 0 || k >= x.ones {
		return -1
	}
	// Find the last superblock whose prefix count is <= k.
	lo, hi := 0, len(x.super)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if int(x.super[mid]) <= k {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	rem := k - int(x.super[lo])
	base := lo * rankSuperBits
	p := Select1(x.buf[base>>3:], rem)
	if p < 0 {
		return -1
	}
	return base + p
}
