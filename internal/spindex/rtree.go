// Package spindex implements the first future direction of the paper's
// Section 7: "spatial indexing and query optimization techniques for
// efficiently locating spatial objects in large populations of studies".
//
// It provides an R-tree over 3D axis-aligned boxes (after Guttman, with
// the quadratic split of the paper's R*-tree citation [3] simplified),
// indexing REGION bounding boxes so population-scale queries — "which
// studies have a high-activity region near this location?" — can prune
// without touching every stored REGION.
package spindex

import (
	"fmt"
	"math"
	"sort"
)

// Box3 is an axis-aligned box with inclusive integer corners.
type Box3 struct {
	MinX, MinY, MinZ uint32
	MaxX, MaxY, MaxZ uint32
}

// Valid reports whether the box is non-inverted.
func (b Box3) Valid() bool {
	return b.MinX <= b.MaxX && b.MinY <= b.MaxY && b.MinZ <= b.MaxZ
}

// Volume returns the box volume in voxels.
func (b Box3) Volume() float64 {
	return float64(b.MaxX-b.MinX+1) * float64(b.MaxY-b.MinY+1) * float64(b.MaxZ-b.MinZ+1)
}

// Intersects reports whether two boxes share any voxel.
func (b Box3) Intersects(o Box3) bool {
	return b.MinX <= o.MaxX && o.MinX <= b.MaxX &&
		b.MinY <= o.MaxY && o.MinY <= b.MaxY &&
		b.MinZ <= o.MaxZ && o.MinZ <= b.MaxZ
}

// ContainsBox reports whether o lies entirely inside b.
func (b Box3) ContainsBox(o Box3) bool {
	return b.MinX <= o.MinX && o.MaxX <= b.MaxX &&
		b.MinY <= o.MinY && o.MaxY <= b.MaxY &&
		b.MinZ <= o.MinZ && o.MaxZ <= b.MaxZ
}

// union returns the smallest box covering both.
func (b Box3) union(o Box3) Box3 {
	return Box3{
		MinX: min32(b.MinX, o.MinX), MinY: min32(b.MinY, o.MinY), MinZ: min32(b.MinZ, o.MinZ),
		MaxX: max32(b.MaxX, o.MaxX), MaxY: max32(b.MaxY, o.MaxY), MaxZ: max32(b.MaxZ, o.MaxZ),
	}
}

// enlargement returns the volume increase needed to cover o.
func (b Box3) enlargement(o Box3) float64 {
	return b.union(o).Volume() - b.Volume()
}

func min32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

func max32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}

// Entry is an indexed item: a bounding box and an opaque identifier.
type Entry struct {
	Box Box3
	ID  int64
}

const (
	maxEntries = 8
	minEntries = 3
)

type node struct {
	leaf     bool
	box      Box3
	entries  []Entry // leaf payload
	children []*node // interior payload
}

// RTree indexes Entry items for box-intersection and nearest queries.
// The zero value is not usable; call New.
type RTree struct {
	root *node
	size int
}

// New returns an empty tree.
func New() *RTree {
	return &RTree{root: &node{leaf: true}}
}

// Len returns the number of indexed entries.
func (t *RTree) Len() int { return t.size }

// Insert adds an entry.
func (t *RTree) Insert(e Entry) error {
	if !e.Box.Valid() {
		return fmt.Errorf("spindex: inverted box %+v", e.Box)
	}
	n1, n2 := t.insert(t.root, e)
	if n2 != nil {
		// Root split: grow the tree.
		t.root = &node{
			leaf:     false,
			box:      n1.box.union(n2.box),
			children: []*node{n1, n2},
		}
	}
	t.size++
	return nil
}

// insert places e under n, returning the (possibly replaced) node and a
// split sibling when n overflowed.
func (t *RTree) insert(n *node, e Entry) (*node, *node) {
	if t.size == 0 {
		n.box = e.Box
	} else if n.box.Volume() == 0 && len(n.entries) == 0 && len(n.children) == 0 {
		n.box = e.Box
	} else {
		n.box = n.box.union(e.Box)
	}
	if n.leaf {
		n.entries = append(n.entries, e)
		if len(n.entries) > maxEntries {
			return splitLeaf(n)
		}
		return n, nil
	}
	// Choose subtree with least enlargement (ties: smaller volume).
	best := 0
	bestEnl := math.Inf(1)
	for i, c := range n.children {
		enl := c.box.enlargement(e.Box)
		if enl < bestEnl || (enl == bestEnl && c.box.Volume() < n.children[best].box.Volume()) {
			best, bestEnl = i, enl
		}
	}
	c1, c2 := t.insert(n.children[best], e)
	n.children[best] = c1
	if c2 != nil {
		n.children = append(n.children, c2)
		if len(n.children) > maxEntries {
			return splitInterior(n)
		}
	}
	n.recomputeBox()
	return n, nil
}

func (n *node) recomputeBox() {
	if n.leaf {
		if len(n.entries) == 0 {
			n.box = Box3{}
			return
		}
		b := n.entries[0].Box
		for _, e := range n.entries[1:] {
			b = b.union(e.Box)
		}
		n.box = b
		return
	}
	if len(n.children) == 0 {
		n.box = Box3{}
		return
	}
	b := n.children[0].box
	for _, c := range n.children[1:] {
		b = b.union(c.box)
	}
	n.box = b
}

// splitLeaf splits an overflowing leaf along the axis with the widest
// spread, distributing entries by center order (a linear-cost variant of
// Guttman's quadratic split; adequate for the populations here).
func splitLeaf(n *node) (*node, *node) {
	axis := widestAxisEntries(n.entries)
	sort.Slice(n.entries, func(i, j int) bool {
		return center(n.entries[i].Box, axis) < center(n.entries[j].Box, axis)
	})
	mid := len(n.entries) / 2
	if mid < minEntries {
		mid = minEntries
	}
	a := &node{leaf: true, entries: append([]Entry(nil), n.entries[:mid]...)}
	b := &node{leaf: true, entries: append([]Entry(nil), n.entries[mid:]...)}
	a.recomputeBox()
	b.recomputeBox()
	return a, b
}

func splitInterior(n *node) (*node, *node) {
	axis := widestAxisNodes(n.children)
	sort.Slice(n.children, func(i, j int) bool {
		return center(n.children[i].box, axis) < center(n.children[j].box, axis)
	})
	mid := len(n.children) / 2
	if mid < minEntries {
		mid = minEntries
	}
	a := &node{children: append([]*node(nil), n.children[:mid]...)}
	b := &node{children: append([]*node(nil), n.children[mid:]...)}
	a.recomputeBox()
	b.recomputeBox()
	return a, b
}

func center(b Box3, axis int) float64 {
	switch axis {
	case 0:
		return float64(b.MinX) + float64(b.MaxX-b.MinX)/2
	case 1:
		return float64(b.MinY) + float64(b.MaxY-b.MinY)/2
	default:
		return float64(b.MinZ) + float64(b.MaxZ-b.MinZ)/2
	}
}

func widestAxisEntries(es []Entry) int {
	var lo, hi [3]float64
	for i := range lo {
		lo[i], hi[i] = math.Inf(1), math.Inf(-1)
	}
	for _, e := range es {
		for axis := 0; axis < 3; axis++ {
			c := center(e.Box, axis)
			lo[axis] = math.Min(lo[axis], c)
			hi[axis] = math.Max(hi[axis], c)
		}
	}
	return argmaxSpread(lo, hi)
}

func widestAxisNodes(ns []*node) int {
	var lo, hi [3]float64
	for i := range lo {
		lo[i], hi[i] = math.Inf(1), math.Inf(-1)
	}
	for _, n := range ns {
		for axis := 0; axis < 3; axis++ {
			c := center(n.box, axis)
			lo[axis] = math.Min(lo[axis], c)
			hi[axis] = math.Max(hi[axis], c)
		}
	}
	return argmaxSpread(lo, hi)
}

func argmaxSpread(lo, hi [3]float64) int {
	best, bestSpread := 0, -1.0
	for axis := 0; axis < 3; axis++ {
		if s := hi[axis] - lo[axis]; s > bestSpread {
			best, bestSpread = axis, s
		}
	}
	return best
}

// SearchStats counts the work of one query, for index-vs-scan
// comparisons.
type SearchStats struct {
	NodesVisited int
	BoxTests     int
}

// Search returns the IDs of all entries whose boxes intersect q, in
// arbitrary order.
func (t *RTree) Search(q Box3) ([]int64, SearchStats) {
	var out []int64
	var st SearchStats
	var walk func(n *node)
	walk = func(n *node) {
		st.NodesVisited++
		if n.leaf {
			for _, e := range n.entries {
				st.BoxTests++
				if e.Box.Intersects(q) {
					out = append(out, e.ID)
				}
			}
			return
		}
		for _, c := range n.children {
			st.BoxTests++
			if c.box.Intersects(q) {
				walk(c)
			}
		}
	}
	walk(t.root)
	return out, st
}

// CheckInvariants validates the structure: every interior box covers its
// children, every leaf box covers its entries, and fanout bounds hold
// (root excepted). For tests.
func (t *RTree) CheckInvariants() error {
	var walk func(n *node, isRoot bool) error
	walk = func(n *node, isRoot bool) error {
		if n.leaf {
			if !isRoot && (len(n.entries) < minEntries || len(n.entries) > maxEntries) {
				return fmt.Errorf("spindex: leaf fanout %d out of [%d,%d]", len(n.entries), minEntries, maxEntries)
			}
			for _, e := range n.entries {
				if !n.box.ContainsBox(e.Box) {
					return fmt.Errorf("spindex: leaf box %+v misses entry %+v", n.box, e.Box)
				}
			}
			return nil
		}
		if !isRoot && (len(n.children) < 2 || len(n.children) > maxEntries) {
			return fmt.Errorf("spindex: interior fanout %d", len(n.children))
		}
		for _, c := range n.children {
			if !n.box.ContainsBox(c.box) {
				return fmt.Errorf("spindex: node box %+v misses child %+v", n.box, c.box)
			}
			if err := walk(c, false); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(t.root, true)
}
