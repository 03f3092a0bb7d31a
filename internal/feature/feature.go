// Package feature implements the third future direction of the paper's
// Section 7: "the determination of image feature vectors and the study
// of multi-dimensional indexing methods for them to enable similarity
// searching", e.g. "find all the PET studies of 40-year old females with
// intensities inside the cerebellum similar to Ms. Smith's latest PET
// study".
//
// A study's feature vector inside a REGION combines a coarse intensity
// histogram with distribution moments; vectors are compared with
// Euclidean distance and indexed by a vantage-point tree for k-NN
// queries without a linear scan.
package feature

import (
	"fmt"
	"math"
	"sort"

	"qbism/internal/volume"
)

// HistBins is the number of coarse intensity-histogram bins in a vector.
const HistBins = 16

// Dim is the feature vector dimensionality: HistBins histogram
// fractions plus mean, standard deviation, and skewness (normalized).
const Dim = HistBins + 3

// Vector is a study-inside-region feature vector.
type Vector [Dim]float64

// Extract computes the feature vector of a data region (the intensities
// of one study inside one REGION). It returns an error for empty
// regions, whose features are undefined.
func Extract(d *volume.DataRegion) (Vector, error) {
	var v Vector
	n := len(d.Values)
	if n == 0 {
		return v, fmt.Errorf("feature: empty data region")
	}
	// Coarse histogram, normalized to fractions.
	for _, b := range d.Values {
		v[int(b)*HistBins/256]++
	}
	for i := 0; i < HistBins; i++ {
		v[i] /= float64(n)
	}
	// Moments.
	var mean float64
	for _, b := range d.Values {
		mean += float64(b)
	}
	mean /= float64(n)
	var m2, m3 float64
	for _, b := range d.Values {
		dv := float64(b) - mean
		m2 += dv * dv
		m3 += dv * dv * dv
	}
	m2 /= float64(n)
	m3 /= float64(n)
	std := math.Sqrt(m2)
	skew := 0.0
	if std > 1e-9 {
		skew = m3 / (std * std * std)
	}
	// Normalize moments into ranges comparable to histogram fractions.
	v[HistBins] = mean / 255
	v[HistBins+1] = std / 128
	v[HistBins+2] = clamp(skew/4, -1, 1)
	return v, nil
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Distance is the Euclidean distance between two vectors.
func Distance(a, b Vector) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Item is an indexed vector with an identifier (e.g. a study id).
type Item struct {
	ID  int64
	Vec Vector
}

// Match is one similarity-search result.
type Match struct {
	ID       int64
	Distance float64
}

// VPTree is a vantage-point tree over feature vectors: a metric-space
// index supporting k-NN search in O(log n) expected node visits for
// low intrinsic dimensionality.
type VPTree struct {
	root *vpNode
	size int
}

type vpNode struct {
	item   Item
	radius float64 // median distance to the vantage point
	inside *vpNode // items within radius
	beyond *vpNode // items at or beyond radius
}

// SearchStats counts the work of one query.
type SearchStats struct {
	NodesVisited      int
	DistanceComputed  int
	CandidatesPruned  int
	LinearEquivalents int // size of the set a scan would have visited
}

// Build constructs a VP-tree over the items (the slice is consumed:
// reordered in place).
func Build(items []Item) *VPTree {
	t := &VPTree{size: len(items)}
	t.root = buildNode(items)
	return t
}

func buildNode(items []Item) *vpNode {
	if len(items) == 0 {
		return nil
	}
	// Vantage point: first item (input order is arbitrary).
	vp := items[0]
	rest := items[1:]
	if len(rest) == 0 {
		return &vpNode{item: vp}
	}
	// Partition by median distance to the vantage point.
	dists := make([]float64, len(rest))
	for i, it := range rest {
		dists[i] = Distance(vp.Vec, it.Vec)
	}
	order := make([]int, len(rest))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return dists[order[a]] < dists[order[b]] })
	mid := len(order) / 2
	radius := dists[order[mid]]
	inside := make([]Item, 0, mid)
	beyond := make([]Item, 0, len(order)-mid)
	for _, idx := range order[:mid] {
		inside = append(inside, rest[idx])
	}
	for _, idx := range order[mid:] {
		beyond = append(beyond, rest[idx])
	}
	return &vpNode{
		item:   vp,
		radius: radius,
		inside: buildNode(inside),
		beyond: buildNode(beyond),
	}
}

// Nearest returns the k items closest to q, nearest first.
func (t *VPTree) Nearest(q Vector, k int) ([]Match, SearchStats) {
	var st SearchStats
	st.LinearEquivalents = t.size
	if k <= 0 || t.root == nil {
		return nil, st
	}
	// Bounded max-heap of current best matches, kept as a sorted slice
	// (k is small in practice).
	best := make([]Match, 0, k)
	worst := func() float64 {
		if len(best) < k {
			return math.Inf(1)
		}
		return best[len(best)-1].Distance
	}
	add := func(m Match) {
		i := sort.Search(len(best), func(i int) bool { return best[i].Distance > m.Distance })
		best = append(best, Match{})
		copy(best[i+1:], best[i:])
		best[i] = m
		if len(best) > k {
			best = best[:k]
		}
	}
	var walk func(n *vpNode)
	walk = func(n *vpNode) {
		if n == nil {
			return
		}
		st.NodesVisited++
		d := Distance(q, n.item.Vec)
		st.DistanceComputed++
		if d < worst() {
			add(Match{ID: n.item.ID, Distance: d})
		}
		if n.inside == nil && n.beyond == nil {
			return
		}
		// Visit the more promising side first; prune the other when the
		// triangle inequality rules it out.
		if d < n.radius {
			walk(n.inside)
			if d+worst() >= n.radius {
				walk(n.beyond)
			} else {
				st.CandidatesPruned++
			}
		} else {
			walk(n.beyond)
			if d-worst() <= n.radius {
				walk(n.inside)
			} else {
				st.CandidatesPruned++
			}
		}
	}
	walk(t.root)
	return best, st
}

// NearestLinear is the brute-force reference: scan all items.
func NearestLinear(items []Item, q Vector, k int) []Match {
	ms := make([]Match, len(items))
	for i, it := range items {
		ms[i] = Match{ID: it.ID, Distance: Distance(q, it.Vec)}
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].Distance < ms[j].Distance })
	if k > len(ms) {
		k = len(ms)
	}
	return ms[:k]
}
