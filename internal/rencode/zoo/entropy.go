package zoo

import (
	"math"

	"qbism/internal/region"
)

// EntropyBitsPerDelta computes the empirical entropy of the delta-length
// distribution of r in bits per delta (EQ 2 of the paper): if p_l is the
// fraction of deltas with length l, the bound is -Σ p_l log2 p_l.
// Returns 0 for regions with no deltas.
func EntropyBitsPerDelta(r *region.Region) float64 {
	deltas := r.Deltas()
	if len(deltas) == 0 {
		return 0
	}
	counts := make(map[uint64]int)
	for _, d := range deltas {
		counts[d.Length]++
	}
	n := float64(len(deltas))
	var h float64
	for _, c := range counts {
		p := float64(c) / n
		h -= p * math.Log2(p)
	}
	return h
}

// EntropyBound returns the entropy lower bound for storing r, in bytes:
// (bits per delta) x (number of deltas) / 8. This is the "yardstick"
// the paper's Figure 4 compares every method against.
func EntropyBound(r *region.Region) float64 {
	deltas := r.Deltas()
	if len(deltas) == 0 {
		return 0
	}
	return EntropyBitsPerDelta(r) * float64(len(deltas)) / 8
}

// DeltaHistogram returns the delta-length histogram of r: length -> count.
// This is the distribution EQ 1 fits the power law against.
func DeltaHistogram(r *region.Region) map[uint64]int {
	counts := make(map[uint64]int)
	for _, d := range r.Deltas() {
		counts[d.Length]++
	}
	return counts
}
