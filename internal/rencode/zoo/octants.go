package zoo

import (
	"fmt"
	"math/bits"

	"qbism/internal/region"
	"qbism/internal/sfc"
)

// Block is an octant in the paper's sense — the unit of the octant
// methods — an aligned power-of-two block on the curve: the complete set
// of 2^Rank voxels whose ids share the prefix ID >> Rank (the paper's
// <z-id, rank> / <h-id, rank> pair, using the smallest constituent id).
// A regular octant additionally has Rank divisible by the grid dimension,
// so it is a cube in space for Hilbert and Z curves.
type Block struct {
	ID   uint64
	Rank uint8
}

// Len returns the number of voxels in the block.
func (o Block) Len() uint64 { return uint64(1) << o.Rank }

// String renders the block as "<id,rank>" as in the paper's tables.
func (o Block) String() string { return fmt.Sprintf("<%d,%d>", o.ID, o.Rank) }

// OblongOctants decomposes r into the minimal list of maximal aligned
// power-of-two blocks (the paper's oblong octants / z-elements), in
// increasing curve order. Every run splits into one or more oblong
// octants, so len(result) >= r.NumRuns().
func OblongOctants(r *region.Region) []Block { return octants(r, OblongOctant) }

// Octants decomposes r into regular octants: aligned blocks whose rank
// is a multiple of the grid dimension, i.e. cubes of side
// 2^(rank/dim). This is the classic linear octree encoding the paper
// compares against.
func Octants(r *region.Region) []Block { return octants(r, Octant) }

// octants greedily splits each run of r into maximal aligned blocks —
// of a rank that is a multiple of the dimension for the Octant method —
// in increasing curve order. Greedy left-to-right is optimal for
// interval-to-aligned-block decomposition.
func octants(r *region.Region, m Method) []Block {
	c := r.Curve()
	maxRank, rankStep := c.Dim()*c.Bits(), 1
	if m == Octant {
		rankStep = c.Dim()
	}
	var out []Block
	for _, run := range r.RunsView() {
		for lo := run.Lo; lo <= run.Hi; {
			// The largest rank lo's alignment and the remaining length allow.
			align := maxRank
			if lo != 0 {
				align = bits.TrailingZeros64(lo)
			}
			rank := min(align, 63-bits.LeadingZeros64(run.Hi-lo+1))
			rank -= rank % rankStep
			out = append(out, Block{ID: lo, Rank: uint8(rank)})
			lo += uint64(1) << rank
		}
	}
	return out
}

// FromOctantList rebuilds a region from an octant list (the inverse of
// the Octants/OblongOctants decompositions, modulo normalization).
func FromOctantList(c sfc.Curve, octs []Block) (*region.Region, error) {
	runs := make([]region.Run, 0, len(octs))
	maxRank := uint8(c.Dim() * c.Bits())
	for _, o := range octs {
		if o.Rank > maxRank {
			return nil, fmt.Errorf("zoo: octant rank %d exceeds grid rank %d", o.Rank, maxRank)
		}
		if o.ID%o.Len() != 0 {
			return nil, fmt.Errorf("zoo: octant %v is not aligned", o)
		}
		runs = append(runs, region.Run{Lo: o.ID, Hi: o.ID + o.Len() - 1})
	}
	return region.FromOwnedRuns(c, runs)
}

// PackOctant packs an octant into the 4-byte <z-id, rank> form the paper
// describes for grids up to 512x512x512 (27 id bits + 5 rank bits).
// It returns an error if the octant does not fit.
func PackOctant(o Block) (uint32, error) {
	if o.ID >= 1<<27 {
		return 0, fmt.Errorf("zoo: octant id %d exceeds 27 bits", o.ID)
	}
	if o.Rank > 27 {
		return 0, fmt.Errorf("zoo: octant rank %d exceeds 5-bit budget", o.Rank)
	}
	return uint32(o.ID)<<5 | uint32(o.Rank), nil
}

// UnpackOctant reverses PackOctant.
func UnpackOctant(v uint32) Block {
	return Block{ID: uint64(v >> 5), Rank: uint8(v & 31)}
}
