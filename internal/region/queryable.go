package region

import (
	"fmt"
	"sort"

	"qbism/internal/sfc"
)

// Queryable is a REGION representation that answers membership and
// curve-interval probes, possibly directly on compressed bytes without
// materializing a run list. *Region implements it over its run list;
// rencode.K3Probe implements it over k³-tree encoded bytes. The
// ContainsQ/IntersectQ/OverlapsQ operators below are the compressed
// fast path of the Section 3.2 spatial operators: one operand stays in
// its stored representation end to end.
//
// The interface lives here rather than in rencode because rencode
// imports region; both packages implement it.
type Queryable interface {
	Curve() sfc.Curve
	NumVoxels() uint64
	Empty() bool
	// ContainsID reports whether curve position id is in the region.
	ContainsID(id uint64) bool
	// AnyInRange reports whether any position in [lo, hi] (inclusive)
	// is present — the interval emptiness test.
	AnyInRange(lo, hi uint64) bool
	// AllInRange reports whether every position in [lo, hi] is present
	// — the interval coverage test. Vacuously true when lo > hi.
	AllInRange(lo, hi uint64) bool
	// IntersectRunsInto intersects the region with a sorted, normalized
	// run list and returns the normalized result in increasing order, in
	// buf's backing array when it has room and in a new slice otherwise.
	// buf must not share memory with runs or the region.
	IntersectRunsInto(runs, buf []Run) []Run
}

var _ Queryable = (*Region)(nil)

// AnyInRange reports whether any position in [lo, hi] is in the
// region, by binary search: the first run ending at or after lo must
// start at or before hi.
func (r *Region) AnyInRange(lo, hi uint64) bool {
	if lo > hi {
		return false
	}
	i := sort.Search(len(r.runs), func(i int) bool { return r.runs[i].Hi >= lo })
	return i < len(r.runs) && r.runs[i].Lo <= hi
}

// AllInRange reports whether every position in [lo, hi] is in the
// region. Runs are maximal, so a fully covered interval must lie
// within a single run.
func (r *Region) AllInRange(lo, hi uint64) bool {
	if lo > hi {
		return true
	}
	i := sort.Search(len(r.runs), func(i int) bool { return r.runs[i].Hi >= lo })
	return i < len(r.runs) && r.runs[i].Lo <= lo && r.runs[i].Hi >= hi
}

// IntersectRuns intersects the region with a sorted, normalized run
// list — the run-list half of Intersect without constructing the other
// Region.
func (r *Region) IntersectRuns(runs []Run) []Run { return r.IntersectRunsInto(runs, nil) }

// IntersectRunsInto is IntersectRuns into buf (Queryable).
func (r *Region) IntersectRunsInto(runs, buf []Run) []Run {
	return intersectRunsInto(buf[:0], r.runs, runs)
}

// errCurveMismatchQ is errCurveMismatch for a Queryable operand.
func errCurveMismatchQ(op string, a Queryable, b *Region) error {
	ac, bc := a.Curve(), b.curve
	return fmt.Errorf("region: %s operands on different curves (%s %dD/%db vs %s %dD/%db)",
		op, ac.Kind(), ac.Dim(), ac.Bits(),
		bc.Kind(), bc.Dim(), bc.Bits())
}

// ContainsQ reports whether a ⊇ b, probing a through its Queryable
// interface: when a is a compressed probe its run list is never
// materialized — each run of b is one coverage test against the
// encoded bytes.
func ContainsQ(a Queryable, b *Region) (bool, error) {
	if !SameCurve(a.Curve(), b.curve) {
		return false, errCurveMismatchQ("containsQ", a, b)
	}
	for _, run := range b.runs {
		if !a.AllInRange(run.Lo, run.Hi) {
			return false, nil
		}
	}
	return true, nil
}

// IntersectQ returns a ∩ b with a kept in its stored representation.
func IntersectQ(a Queryable, b *Region) (*Region, error) {
	if !SameCurve(a.Curve(), b.curve) {
		return nil, errCurveMismatchQ("intersectQ", a, b)
	}
	return &Region{curve: b.curve, runs: a.IntersectRunsInto(b.runs, nil)}, nil
}

// OverlapsQ reports whether a and b share any voxel, short-circuiting
// on the first run of b that is nonempty in a.
func OverlapsQ(a Queryable, b *Region) (bool, error) {
	if !SameCurve(a.Curve(), b.curve) {
		return false, errCurveMismatchQ("overlapsQ", a, b)
	}
	for _, run := range b.runs {
		if a.AnyInRange(run.Lo, run.Hi) {
			return true, nil
		}
	}
	return false, nil
}
