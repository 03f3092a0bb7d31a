package region

import (
	"fmt"
	"sort"
)

// The spatial operators of Section 3.2. All of them run by linearly
// scanning the run lists of their operands in parallel, the run analog of
// the octant "spatial join" the paper cites [22]; each is O(runs(a)+runs(b)).

// errCurveMismatch builds the error for operands on different curves.
func errCurveMismatch(op string, a, b *Region) error {
	return fmt.Errorf("region: %s operands on different curves (%s %dD/%db vs %s %dD/%db)",
		op, a.curve.Kind(), a.curve.Dim(), a.curve.Bits(),
		b.curve.Kind(), b.curve.Dim(), b.curve.Bits())
}

// Intersect returns the spatial intersection of a and b — the paper's
// INTERSECTION(r1, r2) operator.
func Intersect(a, b *Region) (*Region, error) {
	if !SameCurve(a.curve, b.curve) {
		return nil, errCurveMismatch("intersect", a, b)
	}
	var out []Run
	i, j := 0, 0
	ra, rb := a.runs, b.runs
	for i < len(ra) && j < len(rb) {
		lo := max64(ra[i].Lo, rb[j].Lo)
		hi := min64(ra[i].Hi, rb[j].Hi)
		if lo <= hi {
			out = appendRun(out, Run{lo, hi})
		}
		if ra[i].Hi < rb[j].Hi {
			i++
		} else {
			j++
		}
	}
	return &Region{curve: a.curve, runs: out}, nil
}

// IntersectN intersects all the given regions — the n-way spatial
// intersection of the multi-study queries (Table 4). It requires at
// least one region; all must share a curve.
//
// Operands are intersected smallest-first (by run count): intersection
// is commutative and associative and run lists are canonical, so the
// result is identical in any order, but folding from the sparsest
// region shrinks the accumulator early and each pairwise pass is
// O(runs(acc)+runs(next)).
func IntersectN(regions ...*Region) (*Region, error) {
	if len(regions) == 0 {
		return nil, fmt.Errorf("region: IntersectN needs at least one region")
	}
	// Validate every curve upfront, so reordering can't hide a mismatch
	// behind an early empty accumulator.
	for _, r := range regions[1:] {
		if !SameCurve(r.curve, regions[0].curve) {
			return nil, errCurveMismatch("intersectN", regions[0], r)
		}
	}
	ordered := make([]*Region, len(regions))
	copy(ordered, regions)
	sort.SliceStable(ordered, func(i, j int) bool {
		return ordered[i].NumRuns() < ordered[j].NumRuns()
	})
	acc := ordered[0]
	for _, r := range ordered[1:] {
		if acc.Empty() {
			break
		}
		var err error
		acc, err = Intersect(acc, r)
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// Union returns the spatial union of a and b.
func Union(a, b *Region) (*Region, error) {
	if !SameCurve(a.curve, b.curve) {
		return nil, errCurveMismatch("union", a, b)
	}
	out := make([]Run, 0, len(a.runs)+len(b.runs))
	i, j := 0, 0
	for i < len(a.runs) || j < len(b.runs) {
		var next Run
		switch {
		case j >= len(b.runs) || (i < len(a.runs) && a.runs[i].Lo <= b.runs[j].Lo):
			next = a.runs[i]
			i++
		default:
			next = b.runs[j]
			j++
		}
		out = appendRun(out, next)
	}
	return &Region{curve: a.curve, runs: out}, nil
}

// Difference returns the voxels of a that are not in b.
func Difference(a, b *Region) (*Region, error) {
	if !SameCurve(a.curve, b.curve) {
		return nil, errCurveMismatch("difference", a, b)
	}
	var out []Run
	j := 0
	for _, run := range a.runs {
		lo := run.Lo
		for j < len(b.runs) && b.runs[j].Hi < lo {
			j++
		}
		k := j
		for k < len(b.runs) && b.runs[k].Lo <= run.Hi {
			if b.runs[k].Lo > lo {
				out = appendRun(out, Run{lo, b.runs[k].Lo - 1})
			}
			if b.runs[k].Hi >= run.Hi {
				lo = run.Hi + 1
				break
			}
			lo = b.runs[k].Hi + 1
			k++
		}
		if lo <= run.Hi {
			out = appendRun(out, Run{lo, run.Hi})
		}
	}
	return &Region{curve: a.curve, runs: out}, nil
}

// Complement returns the grid voxels not in r.
func Complement(r *Region) (*Region, error) {
	return Difference(Full(r.curve), r)
}

// Contains reports whether a is a spatial superset of b — the paper's
// CONTAINS(r1, r2) operator.
func Contains(a, b *Region) (bool, error) {
	if !SameCurve(a.curve, b.curve) {
		return false, errCurveMismatch("contains", a, b)
	}
	i := 0
	for _, rb := range b.runs {
		for i < len(a.runs) && a.runs[i].Hi < rb.Lo {
			i++
		}
		if i >= len(a.runs) || a.runs[i].Lo > rb.Lo || a.runs[i].Hi < rb.Hi {
			return false, nil
		}
	}
	return true, nil
}

// Overlaps reports whether a and b share at least one voxel, without
// materializing the intersection.
func Overlaps(a, b *Region) (bool, error) {
	if !SameCurve(a.curve, b.curve) {
		return false, errCurveMismatch("overlaps", a, b)
	}
	i, j := 0, 0
	for i < len(a.runs) && j < len(b.runs) {
		if a.runs[i].Hi < b.runs[j].Lo {
			i++
		} else if b.runs[j].Hi < a.runs[i].Lo {
			j++
		} else {
			return true, nil
		}
	}
	return false, nil
}

// appendRun appends run to out, merging with the previous run when they
// overlap or are adjacent, keeping the list normalized.
func appendRun(out []Run, run Run) []Run {
	if n := len(out); n > 0 && run.Lo <= out[n-1].Hi+1 {
		if run.Hi > out[n-1].Hi {
			out[n-1].Hi = run.Hi
		}
		return out
	}
	return append(out, run)
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
