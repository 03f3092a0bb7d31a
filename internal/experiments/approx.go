package experiments

import "qbism/internal/region"

// Approximate representations (Section 4.2, "Approximate representation
// of REGIONs"): gap merging trades spatial accuracy for fewer pieces by
// including outside space, so queries over it need post-processing with
// exact REGIONs. Only the mingap ablation asks for them.

// MergeGaps returns an over-approximation of r in which every gap
// strictly shorter than mingap voxels has been eliminated by merging the
// runs on each side. mingap <= 1 returns r unchanged. The result is a
// superset of r with at most as many runs.
func MergeGaps(r *region.Region, mingap uint64) (*region.Region, error) {
	runs := r.RunsView()
	if mingap <= 1 || len(runs) == 0 {
		return r, nil
	}
	out := make([]region.Run, 0, len(runs))
	out = append(out, runs[0])
	for _, run := range runs[1:] {
		last := &out[len(out)-1]
		if run.Lo-last.Hi-1 < mingap {
			last.Hi = run.Hi
		} else {
			out = append(out, run)
		}
	}
	return region.FromOwnedRuns(r.Curve(), out)
}

// ApproxError quantifies an over-approximation: the number of voxels in
// approx that are not in exact, and the relative volume inflation
// (approx/exact as a ratio; +Inf semantics avoided by returning 0 for an
// empty exact region).
func ApproxError(exact, approx *region.Region) (extraVoxels uint64, inflation float64, err error) {
	diff, err := region.Difference(approx, exact)
	if err != nil {
		return 0, 0, err
	}
	ev := diff.NumVoxels()
	nv := exact.NumVoxels()
	if nv == 0 {
		return ev, 0, nil
	}
	return ev, float64(approx.NumVoxels()) / float64(nv), nil
}
