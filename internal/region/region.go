// Package region implements the REGION data type of the QBISM paper: an
// arbitrary subset of a 3D (or 2D) grid, represented volumetrically as a
// sorted list of runs of consecutive positions along a space-filling
// curve (Section 4.2 of the paper).
//
// A Region is immutable after construction, except that whoever alone
// holds one may Refill it; all operations return new Regions. Runs are
// maximal: normalized regions never contain adjacent
// or overlapping runs, so NumRuns is exactly the paper's "#runs" metric
// (h-runs on a Hilbert curve, z-runs on a Z curve).
package region

import (
	"fmt"
	"slices"
	"sort"

	"qbism/internal/sfc"
)

// Run is a maximal interval [Lo, Hi] (inclusive) of consecutive curve
// positions whose voxels all belong to the region — the paper's
// <start, end> pair.
type Run struct {
	Lo, Hi uint64
}

// Len returns the number of voxels in the run.
func (r Run) Len() uint64 { return r.Hi - r.Lo + 1 }

// String renders the run as "<lo,hi>" as in the paper's tables.
func (r Run) String() string { return fmt.Sprintf("<%d,%d>", r.Lo, r.Hi) }

// Region is a set of grid points encoded as runs along a space-filling
// curve. The zero value is not usable; construct with the From* helpers
// or set operations.
type Region struct {
	curve sfc.Curve
	runs  []Run
}

// Curve returns the space-filling curve the region is encoded on.
func (r *Region) Curve() sfc.Curve { return r.curve }

// NumRuns returns the number of maximal runs (the paper's piece count).
func (r *Region) NumRuns() int { return len(r.runs) }

// NumVoxels returns the total number of grid points in the region.
func (r *Region) NumVoxels() uint64 {
	var n uint64
	for _, run := range r.runs {
		n += run.Len()
	}
	return n
}

// Empty reports whether the region contains no voxels.
func (r *Region) Empty() bool { return len(r.runs) == 0 }

// Runs returns a copy of the run list in increasing curve order.
func (r *Region) Runs() []Run {
	out := make([]Run, len(r.runs))
	copy(out, r.runs)
	return out
}

// RunsView returns the run list itself, for callers that only iterate;
// they must not modify it. Runs is the copy a caller may keep or change.
func (r *Region) RunsView() []Run { return r.runs }

// ContainsID reports whether curve position id is in the region, by
// binary search over the runs.
func (r *Region) ContainsID(id uint64) bool {
	i := sort.Search(len(r.runs), func(i int) bool { return r.runs[i].Hi >= id })
	return i < len(r.runs) && r.runs[i].Lo <= id
}

// ContainsPoint reports whether the grid point is in the region.
func (r *Region) ContainsPoint(p sfc.Point) bool {
	return r.ContainsID(r.curve.ID(p))
}

// ForEachID calls f for every curve position in the region, in
// increasing order. If f returns false, iteration stops early.
func (r *Region) ForEachID(f func(id uint64) bool) {
	for _, run := range r.runs {
		for id := run.Lo; ; id++ {
			if !f(id) {
				return
			}
			if id == run.Hi {
				break
			}
		}
	}
}

// ForEachPoint calls f for every grid point in the region, in curve
// order. If f returns false, iteration stops early.
func (r *Region) ForEachPoint(f func(p sfc.Point) bool) {
	r.ForEachID(func(id uint64) bool { return f(r.curve.Point(id)) })
}

// Equal reports whether the two regions are the same voxel set on the
// same curve.
func (r *Region) Equal(o *Region) bool {
	if !SameCurve(r.curve, o.curve) || len(r.runs) != len(o.runs) {
		return false
	}
	for i := range r.runs {
		if r.runs[i] != o.runs[i] {
			return false
		}
	}
	return true
}

// Bounds returns the axis-aligned bounding box of the region as
// (min, max) points, both inclusive. It decodes every voxel, so it is
// O(NumVoxels); callers that need it repeatedly should cache it.
// For an empty region ok is false.
func (r *Region) Bounds() (min, max sfc.Point, ok bool) {
	if r.Empty() {
		return sfc.Point{}, sfc.Point{}, false
	}
	first := true
	r.ForEachPoint(func(p sfc.Point) bool {
		if first {
			min, max = p, p
			first = false
			return true
		}
		if p.X < min.X {
			min.X = p.X
		}
		if p.Y < min.Y {
			min.Y = p.Y
		}
		if p.Z < min.Z {
			min.Z = p.Z
		}
		if p.X > max.X {
			max.X = p.X
		}
		if p.Y > max.Y {
			max.Y = p.Y
		}
		if p.Z > max.Z {
			max.Z = p.Z
		}
		return true
	})
	return min, max, true
}

// String summarizes the region.
func (r *Region) String() string {
	return fmt.Sprintf("Region(%s, %d runs, %d voxels)", r.curve.Kind(), r.NumRuns(), r.NumVoxels())
}

// Empty returns the empty region on curve c.
func Empty(c sfc.Curve) *Region { return &Region{curve: c} }

// Full returns the region covering the entire grid of curve c (a single
// run, like the paper's Q1 "entire study" region).
func Full(c sfc.Curve) *Region {
	return &Region{curve: c, runs: []Run{{Lo: 0, Hi: c.Length() - 1}}}
}

// FromRuns builds a region from an arbitrary run list, normalizing it:
// runs are sorted, merged when overlapping or adjacent, and validated
// against the curve length. The input slice is not modified.
func FromRuns(c sfc.Curve, runs []Run) (*Region, error) {
	return FromOwnedRuns(c, slices.Clone(runs))
}

// FromOwnedRuns is FromRuns for callers that hand over ownership of
// runs — a decoder with the list it just built: the slice becomes the
// region's run list. One pass validates every run and tests whether the
// list is already normalized (strictly increasing, no two runs
// overlapping or adjacent); only a list that is not gets sorted and
// merged, in place.
func FromOwnedRuns(c sfc.Curve, runs []Run) (*Region, error) {
	r := new(Region)
	if err := r.Refill(c, runs); err != nil {
		return nil, err
	}
	return r, nil
}

// Refill makes r, in place, the region FromOwnedRuns(c, runs) returns,
// taking ownership of runs the same way. It is for the owner of a Region
// nobody else holds, which reuses it for one result after another —
// every other Region stays as it was built. On an error r is left
// unchanged.
func (r *Region) Refill(c sfc.Curve, runs []Run) error {
	n := c.Length()
	normalized := true
	for i, run := range runs {
		if run.Lo > run.Hi {
			return fmt.Errorf("region: invalid run %v (lo > hi)", run)
		}
		if run.Hi >= n {
			return fmt.Errorf("region: run %v exceeds curve length %d", run, n)
		}
		// Hi+1 cannot overflow: Hi < curve length <= 1<<63.
		if i > 0 && run.Lo <= runs[i-1].Hi+1 {
			normalized = false
		}
	}
	if !normalized {
		sort.Slice(runs, func(i, j int) bool { return runs[i].Lo < runs[j].Lo })
		runs = mergeSorted(runs)
	}
	r.curve, r.runs = c, runs
	return nil
}

// mergeSorted merges overlapping or adjacent runs of a sorted slice in
// place and returns the shortened slice.
func mergeSorted(rs []Run) []Run {
	if len(rs) == 0 {
		return rs
	}
	out := rs[:1]
	for _, run := range rs[1:] {
		last := &out[len(out)-1]
		// Hi+1 cannot overflow: Hi < curve length <= 1<<63.
		if run.Lo <= last.Hi+1 { // overlapping or adjacent
			if run.Hi > last.Hi {
				last.Hi = run.Hi
			}
			continue
		}
		out = append(out, run)
	}
	return out
}

// FromIDs builds a region from an unordered set of curve positions by
// sorting a copy of them. It is the constructor for sets with no shape
// to walk; FromBox and FromEllipsoid use it only on the scanline curve,
// whose aligned cubes are not id ranges. The input slice is not
// modified.
func FromIDs(c sfc.Curve, ids []uint64) (*Region, error) {
	sorted := make([]uint64, len(ids))
	copy(sorted, ids)
	return fromOwnedIDs(c, sorted)
}

// fromOwnedIDs is FromIDs for callers that hand over ownership of ids:
// it sorts in place instead of copying, halving the transient footprint
// on the Recode hot path (which materializes every voxel id).
func fromOwnedIDs(c sfc.Curve, sorted []uint64) (*Region, error) {
	if len(sorted) == 0 {
		return Empty(c), nil
	}
	slices.Sort(sorted)
	var runs []Run
	cur := Run{Lo: sorted[0], Hi: sorted[0]}
	if cur.Hi >= c.Length() {
		return nil, fmt.Errorf("region: id %d exceeds curve length %d", cur.Hi, c.Length())
	}
	for _, id := range sorted[1:] {
		if id >= c.Length() {
			return nil, fmt.Errorf("region: id %d exceeds curve length %d", id, c.Length())
		}
		switch {
		case id == cur.Hi || id == cur.Hi+1:
			cur.Hi = id
		default:
			runs = append(runs, cur)
			cur = Run{Lo: id, Hi: id}
		}
	}
	runs = append(runs, cur)
	return &Region{curve: c, runs: runs}, nil
}

// FromPoints builds a region from an unordered set of grid points.
func FromPoints(c sfc.Curve, pts []sfc.Point) (*Region, error) {
	ids := make([]uint64, len(pts))
	for i, p := range pts {
		ids[i] = c.ID(p)
	}
	return FromIDs(c, ids)
}

// FromPredicate builds the region of all grid points satisfying pred.
// It scans the full grid once (O(curve length) decodes).
func FromPredicate(c sfc.Curve, pred func(p sfc.Point) bool) *Region {
	var runs []Run
	inRun := false
	var cur Run
	for id := uint64(0); id < c.Length(); id++ {
		if pred(c.Point(id)) {
			if !inRun {
				cur = Run{Lo: id, Hi: id}
				inRun = true
			} else {
				cur.Hi = id
			}
		} else if inRun {
			runs = append(runs, cur)
			inRun = false
		}
	}
	if inRun {
		runs = append(runs, cur)
	}
	return &Region{curve: c, runs: runs}
}

// Recode re-encodes the region onto another curve over the same grid
// (e.g. h-runs -> z-runs). The voxel set is preserved; the run list is
// rebuilt in the new order.
func (r *Region) Recode(to sfc.Curve) (*Region, error) {
	if to.Dim() != r.curve.Dim() || to.Bits() != r.curve.Bits() {
		return nil, fmt.Errorf("region: cannot recode between grids %dD/%db and %dD/%db",
			r.curve.Dim(), r.curve.Bits(), to.Dim(), to.Bits())
	}
	if SameCurve(r.curve, to) {
		return r, nil
	}
	ids := make([]uint64, 0, r.NumVoxels())
	r.ForEachPoint(func(p sfc.Point) bool {
		ids = append(ids, to.ID(p))
		return true
	})
	return fromOwnedIDs(to, ids)
}

// SameCurve reports whether two curves are one ordering of one grid:
// the same kind, dimension and bits. Run lists on such curves combine
// directly; any others must be recoded first.
func SameCurve(a, b sfc.Curve) bool {
	return a.Kind() == b.Kind() && a.Dim() == b.Dim() && a.Bits() == b.Bits()
}
