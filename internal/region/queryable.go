package region

import (
	"fmt"

	"qbism/internal/sfc"
)

// Queryable is a REGION representation that answers membership, and
// coverage and intersection of sorted run lists, possibly directly on
// compressed bytes without materializing a run list. *Region implements
// it over its run list; rencode.K3Probe implements it over k³-tree
// encoded bytes. The ContainsQ/IntersectQ operators below are the
// compressed fast path of the Section 3.2 spatial operators: one operand
// stays in its stored representation end to end.
//
// The interface lives here rather than in rencode because rencode
// imports region; both packages implement it.
type Queryable interface {
	Curve() sfc.Curve
	NumVoxels() uint64
	// ContainsID reports whether curve position id is in the region.
	ContainsID(id uint64) bool
	// CoversRuns reports whether every position of runs, a sorted,
	// normalized run list, is present — the coverage test, in one sweep
	// in id order. Vacuously true when runs is empty.
	CoversRuns(runs []Run) bool
	// IntersectRunsInto intersects the region with a sorted, normalized
	// run list and returns the normalized result in increasing order, in
	// buf's backing array when it has room and in a new slice otherwise.
	// buf must not share memory with runs or the region.
	IntersectRunsInto(runs, buf []Run) []Run
}

var _ Queryable = (*Region)(nil)

// CoversRuns reports whether every position of runs, a sorted,
// normalized run list, is in the region (Queryable). Runs are maximal,
// so each covered run must lie within a single run of the region; one
// pointer into the region's runs serves the whole sweep.
func (r *Region) CoversRuns(runs []Run) bool {
	i := 0
	for _, rb := range runs {
		for i < len(r.runs) && r.runs[i].Hi < rb.Lo {
			i++
		}
		if i >= len(r.runs) || r.runs[i].Lo > rb.Lo || r.runs[i].Hi < rb.Hi {
			return false
		}
	}
	return true
}

// IntersectRunsInto intersects the region with a sorted, normalized run
// list into buf (Queryable) — the run-list half of Intersect without
// constructing the other Region.
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
// materialized — b's runs are one coverage sweep over the encoded
// bytes.
func ContainsQ(a Queryable, b *Region) (bool, error) {
	if !SameCurve(a.Curve(), b.curve) {
		return false, errCurveMismatchQ("containsQ", a, b)
	}
	return a.CoversRuns(b.runs), nil
}

// IntersectQ returns a ∩ b with a kept in its stored representation.
func IntersectQ(a Queryable, b *Region) (*Region, error) {
	if !SameCurve(a.Curve(), b.curve) {
		return nil, errCurveMismatchQ("intersectQ", a, b)
	}
	return &Region{curve: b.curve, runs: a.IntersectRunsInto(b.runs, nil)}, nil
}
