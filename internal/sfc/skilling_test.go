package sfc

import (
	"math/rand"
	"testing"
)

// skilling is the reference Hilbert curve: Skilling's transposition
// algorithm ("Programming the Hilbert curve", AIP Conf. Proc. 707,
// 2004), per-bit loops and all. It was the production implementation
// until the table-driven state machine replaced it; it stays as the
// oracle that machine must equal bit for bit.
type skilling struct {
	dim  int
	bits int
}

func (h skilling) ID(p Point) uint64 {
	checkPoint(p, h.dim, h.bits)
	var x [3]uint32
	x[0], x[1], x[2] = p.X, p.Y, p.Z
	axesToTranspose(x[:h.dim], h.bits)
	return interleaveTransposed(x[:h.dim], h.bits)
}

func (h skilling) Point(id uint64) Point {
	checkID(id, h.dim, h.bits)
	var x [3]uint32
	deinterleaveTransposed(id, x[:h.dim], h.bits)
	transposeToAxes(x[:h.dim], h.bits)
	var p Point
	p.X, p.Y = x[0], x[1]
	if h.dim == 3 {
		p.Z = x[2]
	}
	return p
}

// axesToTranspose converts Cartesian coordinates in place into the
// "transposed" Hilbert representation, where bit k of the Hilbert id is
// bit k/dim of x[k%dim] reading from the most significant end.
func axesToTranspose(x []uint32, bits int) {
	n := len(x)
	m := uint32(1) << (bits - 1)

	// Inverse undo of the excess-work loop in transposeToAxes.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < n; i++ {
			if x[i]&q != 0 {
				x[0] ^= p // invert low bits of x[0]
			} else { // exchange low bits of x[i] and x[0]
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}

	// Gray encode.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	var t uint32
	for q := m; q > 1; q >>= 1 {
		if x[n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
}

// transposeToAxes is the inverse of axesToTranspose.
func transposeToAxes(x []uint32, bits int) {
	n := len(x)
	m := uint32(2) << (bits - 1)

	// Gray decode by H ^ (H/2).
	t := x[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t

	// Undo excess work.
	for q := uint32(2); q != m; q <<= 1 {
		p := q - 1
		for i := n - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
}

// interleaveTransposed packs the transposed representation into a single
// id: the most significant bit of the id is the top bit of x[0], then the
// top bit of x[1], and so on.
func interleaveTransposed(x []uint32, bits int) uint64 {
	var id uint64
	for b := bits - 1; b >= 0; b-- {
		for i := 0; i < len(x); i++ {
			id = id<<1 | uint64(x[i]>>b&1)
		}
	}
	return id
}

// deinterleaveTransposed is the inverse of interleaveTransposed; it fills
// x with the transposed representation of id.
func deinterleaveTransposed(id uint64, x []uint32, bits int) {
	for i := range x {
		x[i] = 0
	}
	shift := uint(len(x)*bits - 1)
	for b := bits - 1; b >= 0; b-- {
		for i := 0; i < len(x); i++ {
			x[i] |= uint32(id>>shift&1) << b
			shift--
		}
	}
}

// TestHilbertEqualsSkillingExhaustive walks every id of every small
// grid: the table-driven curve and the reference agree in both
// directions.
func TestHilbertEqualsSkillingExhaustive(t *testing.T) {
	for dim := 2; dim <= 3; dim++ {
		for bits := 1; bits <= 6; bits++ {
			c, ref := MustNew(Hilbert, dim, bits), skilling{dim, bits}
			for id := uint64(0); id < c.Length(); id++ {
				p := ref.Point(id)
				if got := c.Point(id); got != p {
					t.Fatalf("dim=%d bits=%d: Point(%d) = %v, reference %v", dim, bits, id, got, p)
				}
				if got := c.ID(p); got != id {
					t.Fatalf("dim=%d bits=%d: ID(%v) = %d, reference %d", dim, bits, p, got, id)
				}
			}
		}
	}
}

// TestHilbertEqualsSkillingSampled checks a million seeded ids on the
// grids too large to walk (the paper's 128^3 and 512^3 among them),
// and the round trip through both directions.
func TestHilbertEqualsSkillingSampled(t *testing.T) {
	rng := rand.New(rand.NewSource(1993))
	for dim := 2; dim <= 3; dim++ {
		for bits := 7; bits <= 10; bits++ {
			c, ref := MustNew(Hilbert, dim, bits), skilling{dim, bits}
			for i := 0; i < 1_000_000/8; i++ {
				id := rng.Uint64() % c.Length()
				p := ref.Point(id)
				if got := c.Point(id); got != p {
					t.Fatalf("dim=%d bits=%d: Point(%d) = %v, reference %v", dim, bits, id, got, p)
				}
				if got := c.ID(p); got != id || ref.ID(p) != id {
					t.Fatalf("dim=%d bits=%d: ID(%v) = %d, reference %d, want %d", dim, bits, p, got, ref.ID(p), id)
				}
			}
		}
	}
	// The widest grids New accepts: every level of a 63-bit id.
	for _, c := range []Curve{MustNew(Hilbert, 3, 21), MustNew(Hilbert, 2, 31)} {
		ref := skilling{c.Dim(), c.Bits()}
		for i := 0; i < 10_000; i++ {
			id := rng.Uint64() % c.Length()
			if p := ref.Point(id); c.Point(id) != p || c.ID(p) != id {
				t.Fatalf("dim=%d bits=%d: id %d: Point %v vs reference %v, ID %d", c.Dim(), c.Bits(), id, c.Point(id), p, c.ID(p))
			}
		}
	}
}
