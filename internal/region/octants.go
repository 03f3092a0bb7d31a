package region

import (
	"fmt"
	"math/bits"
)

// Octant is an aligned power-of-two block on the curve: the complete set
// of 2^Rank voxels whose ids share the prefix ID >> Rank (the paper's
// <z-id, rank> / <h-id, rank> pair, using the smallest constituent id).
// A regular octant additionally has Rank divisible by the grid dimension,
// so it is a cube in space for Hilbert and Z curves.
type Octant struct {
	ID   uint64
	Rank uint8
}

// Len returns the number of voxels in the octant.
func (o Octant) Len() uint64 { return uint64(1) << o.Rank }

// String renders the octant as "<id,rank>" as in the paper's tables.
func (o Octant) String() string { return fmt.Sprintf("<%d,%d>", o.ID, o.Rank) }

// Run returns the curve interval the octant covers.
func (o Octant) Run() Run { return Run{Lo: o.ID, Hi: o.ID + o.Len() - 1} }

// OblongOctants decomposes the region into the minimal list of maximal
// aligned power-of-two blocks (the paper's oblong octants / z-elements),
// in increasing curve order. Every run splits into one or more oblong
// octants, so len(result) >= NumRuns.
func (r *Region) OblongOctants() []Octant {
	var out []Octant
	r.decompose(1, func(o Octant) { out = append(out, o) })
	return out
}

// NumOblongOctants is len(r.OblongOctants()), counted without building
// the list.
func (r *Region) NumOblongOctants() int {
	n := 0
	r.decompose(1, func(Octant) { n++ })
	return n
}

// Octants decomposes the region into regular octants: aligned blocks
// whose rank is a multiple of the grid dimension, i.e. cubes of side
// 2^(rank/dim). This is the classic linear octree encoding the paper
// compares against.
func (r *Region) Octants() []Octant {
	var out []Octant
	r.decompose(r.curve.Dim(), func(o Octant) { out = append(out, o) })
	return out
}

// NumOctants is len(r.Octants()), counted without building the list.
func (r *Region) NumOctants() int {
	n := 0
	r.decompose(r.curve.Dim(), func(Octant) { n++ })
	return n
}

// decompose greedily splits each run into maximal aligned blocks whose
// rank is a multiple of rankStep, passing each to emit in increasing
// curve order. Greedy left-to-right is optimal for interval-to-aligned-
// block decomposition.
func (r *Region) decompose(rankStep int, emit func(Octant)) {
	maxRank := r.curve.Dim() * r.curve.Bits()
	for _, run := range r.runs {
		lo := run.Lo
		for {
			remaining := run.Hi - lo + 1
			// Largest rank allowed by alignment of lo.
			align := maxRank
			if lo != 0 {
				align = bits.TrailingZeros64(lo)
			}
			// Largest rank allowed by the remaining length.
			fit := 63 - bits.LeadingZeros64(remaining)
			rank := align
			if fit < rank {
				rank = fit
			}
			rank -= rank % rankStep
			emit(Octant{ID: lo, Rank: uint8(rank)})
			lo += uint64(1) << rank
			if lo > run.Hi {
				break
			}
		}
	}
}

// PackOctant packs an octant into the 4-byte <z-id, rank> form the paper
// describes for grids up to 512x512x512 (27 id bits + 5 rank bits).
// It returns an error if the octant does not fit.
func PackOctant(o Octant) (uint32, error) {
	if o.ID >= 1<<27 {
		return 0, fmt.Errorf("region: octant id %d exceeds 27 bits", o.ID)
	}
	if o.Rank > 27 {
		return 0, fmt.Errorf("region: octant rank %d exceeds 5-bit budget", o.Rank)
	}
	return uint32(o.ID)<<5 | uint32(o.Rank), nil
}

// UnpackOctant reverses PackOctant.
func UnpackOctant(v uint32) Octant {
	return Octant{ID: uint64(v >> 5), Rank: uint8(v & 31)}
}

// Delta is one element of the alternating run/gap decomposition of a
// region along its curve (the paper's "deltas"). Inside is true for
// runs (z-runs/h-runs) and false for gaps (z-gaps/h-gaps).
type Delta struct {
	Length uint64
	Inside bool
}

// Deltas returns the full alternating gap/run sequence covering the
// curve from position 0 through the end of the last run: a leading gap
// (possibly absent when the region starts at 0), then run, gap, run, ...
// ending with the final run. The trailing gap to the end of the grid is
// omitted, matching how the codecs store regions.
func (r *Region) Deltas() []Delta {
	var out []Delta
	r.EachDelta(func(d Delta) { out = append(out, d) })
	return out
}

// EachDelta passes the elements of Deltas to f in order, without
// building the list. It is kept small enough to inline, so that a
// caller's f is a direct call and inlines too: it is the inner loop of
// the delta-stream codecs.
func (r *Region) EachDelta(f func(Delta)) {
	pos := uint64(0)
	for _, run := range r.runs {
		if run.Lo > pos {
			f(Delta{Length: run.Lo - pos})
		}
		f(Delta{Length: run.Hi - run.Lo + 1, Inside: true})
		pos = run.Hi + 1
	}
}
