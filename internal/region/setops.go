package region

import "fmt"

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
	return &Region{curve: a.curve, runs: intersectRunsInto(nil, a.runs, b.runs)}, nil
}

// intersectRunsInto appends the intersection of the sorted, normalized
// run lists a and b to out: the one merge loop behind Intersect,
// IntersectN and Region.IntersectRunsInto.
//
// The loop writes its k-th run only after it has read past k runs of a
// and b together, so out may share a's memory as long as a starts at
// least len(b) runs past out's length: IntersectN's fold relies on that.
func intersectRunsInto(out, a, b []Run) []Run {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := max64(a[i].Lo, b[j].Lo)
		hi := min64(a[i].Hi, b[j].Hi)
		if lo <= hi {
			out = appendRun(out, Run{lo, hi})
		}
		if a[i].Hi < b[j].Hi {
			i++
		} else {
			j++
		}
	}
	return out
}

// foldStackRuns is the largest first step IntersectN merges in a buffer
// on its stack: 32 KiB, room for the three paper-scale bands whose
// answer is empty.
const foldStackRuns = 2048

// IntersectN intersects all the given regions — the n-way spatial
// intersection of the multi-study queries (Table 4). It requires at
// least one region; all must share a curve. The answer is always a new
// Region, one operand or many: nothing its caller does to it reaches an
// operand.
//
// Operands are folded in smallest-first (by run count, ties in argument
// order): intersection is commutative and associative and run lists are
// canonical, so the result is identical in any order, but folding from
// the sparsest region shrinks the accumulator early, and each step is
// O(runs(acc)+runs(next)).
//
// The steps share one scratch buffer. Each moves the accumulator up past
// room for the next operand's runs and merges the two into the buffer's
// front (intersectRunsInto says why that is safe), so a step needs
// runs(acc)+runs(next) of it. The first step picks the buffer: none when
// its operands do not overlap, since the answer is then empty; one on
// the stack when it needs at most foldStackRuns; otherwise a heap buffer
// with a quarter more room for the accumulator and room for the largest
// operand. Every later step fits that unless its accumulator has grown by
// more than the quarter; the first that does not takes one last buffer,
// sized for the rest of the fold at its worst. The answer is one
// exactly-sized copy. So a call allocates the answer's Region, its run
// list and the scratch buffer — three allocations, whatever the number
// of operands, four when an accumulator outgrows its quarter — and an
// empty answer or a small fold one or two.
func IntersectN(regions ...*Region) (*Region, error) {
	if len(regions) == 0 {
		return nil, fmt.Errorf("region: IntersectN needs at least one region")
	}
	// Validate every curve upfront, so an early empty accumulator can't
	// hide a mismatch further on.
	c, largest, rest := regions[0].curve, 0, 0
	for _, r := range regions {
		if !SameCurve(r.curve, c) {
			return nil, errCurveMismatch("intersectN", regions[0], r)
		}
		largest, rest = max(largest, len(r.runs)), rest+len(r.runs)
	}
	i := foldNext(regions, -1)
	acc := regions[i].runs
	rest -= len(acc) // the runs of the operands still to fold in
	var buf []Run
	if j := foldNext(regions, i); j >= 0 && len(acc) > 0 {
		switch next := regions[j].runs; {
		case !overlapRuns(acc, next):
			acc = nil
		case len(acc)+len(next) <= foldStackRuns:
			var stack [foldStackRuns]Run
			buf = stack[:]
		}
	}
	owned, onHeap := false, false // acc is in buf; buf came from make
	for i = foldNext(regions, i); i >= 0 && len(acc) > 0; i = foldNext(regions, i) {
		next := regions[i].runs
		if need := len(acc) + len(next); need > len(buf) {
			size := max(need, len(acc)+len(acc)/4+largest)
			if onHeap {
				// Room for the rest of the fold at its worst: a step adds
				// fewer runs to the accumulator than its operand has.
				size = len(acc) + rest
			}
			buf, onHeap = make([]Run, size), true
		}
		rest -= len(next)
		src := acc
		if owned {
			src = buf[len(next) : len(next)+len(acc)]
			copy(src, acc)
		}
		acc, owned = intersectRunsInto(buf[:0], src, next), true
	}
	out := &Region{curve: c}
	if len(acc) > 0 {
		out.runs = make([]Run, len(acc))
		copy(out.runs, acc)
	}
	return out, nil
}

// foldNext returns the operand IntersectN folds in after operand prev
// (-1: the first one), or -1 after the last.
func foldNext(regions []*Region, prev int) int {
	next := -1
	for i := range regions {
		if (prev < 0 || foldsAfter(regions, i, prev)) && (next < 0 || foldsAfter(regions, next, i)) {
			next = i
		}
	}
	return next
}

// foldsAfter reports whether IntersectN folds operand i in after operand
// j: it has more runs, or as many and comes later.
func foldsAfter(regions []*Region, i, j int) bool {
	ni, nj := len(regions[i].runs), len(regions[j].runs)
	return ni > nj || ni == nj && i > j
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
	return overlapRuns(a.runs, b.runs), nil
}

// overlapRuns reports whether two sorted run lists share a position.
func overlapRuns(a, b []Run) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Hi < b[j].Lo {
			i++
		} else if b[j].Hi < a[i].Lo {
			j++
		} else {
			return true
		}
	}
	return false
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
