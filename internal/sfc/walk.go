package sfc

import "fmt"

// Cell is a classifier's verdict on an aligned cube of the grid.
type Cell uint8

const (
	// Out says no voxel of the cube belongs to the set.
	Out Cell = iota
	// In says every voxel of the cube belongs to the set.
	In
	// Partial says the cube must be split: the walk visits its children.
	Partial
)

// Cover walks the digit tree of c, a Hilbert or Z curve, and calls emit
// with the runs [first, last] of ids of the set that classify
// describes, maximal and in increasing order. It panics on any other
// curve: a scanline curve's aligned cubes are not id ranges.
//
// A node of the tree at level k is an aligned cube of side 2^k whose
// ids are one range; its children are the 2^dim cubes of side 2^(k-1)
// inside it, in curve order. classify is called with a cube's least and
// greatest corners, both inclusive (Z = 0 on a 2D curve), from the
// whole grid down. The walk emits the ids of every cube classify calls
// In and descends only into the cubes it calls Partial; a single voxel
// (lo == hi) called Partial is left out. This is the HTM cover of Gray
// and Szalay's "There Goes the Neighborhood" — cells full, partial or
// outside, ranges of ids out — on the curve's octree in place of the
// sphere's triangles.
func Cover(c Curve, classify func(lo, hi Point) Cell, emit func(first, last uint64)) {
	cv := coverer{classify: classify, emit: emit, flat: c.Dim() == 2}
	walk(c, 0, c.Length(), cv.node, cv.leaves)
	if cv.open {
		emit(cv.first, cv.last)
	}
}

// coverer is one Cover: the caller's callbacks and the run it has not
// emitted yet, which the next In cube may still extend.
type coverer struct {
	classify    func(lo, hi Point) Cell
	emit        func(first, last uint64)
	flat        bool
	open        bool
	first, last uint64
}

func (cv *coverer) node(level uint, id, n uint64, lo Point) Cell {
	side := uint32(1)<<level - 1
	hi := Point{X: lo.X + side, Y: lo.Y + side}
	if !cv.flat {
		hi.Z = lo.Z + side
	}
	cell := cv.classify(lo, hi)
	if cell == In {
		cv.add(id, id+n-1)
	}
	return cell
}

func (cv *coverer) leaves(id uint64, lo Point, cs uint64) {
	axes := &digitAxes[3]
	n := uint64(8)
	if cv.flat {
		axes, n = &digitAxes[2], 4
	}
	for i := uint64(0); i < n; i++ {
		a := &axes[cs>>(8*i)&7]
		p := Point{X: lo.X | a.X, Y: lo.Y | a.Y, Z: lo.Z | a.Z}
		if cv.classify(p, p) == In {
			cv.add(id+i, id+i)
		}
	}
}

// add takes the ids [first, last] of an In cube, which follow every id
// taken before: it extends the open run or emits it and opens another.
func (cv *coverer) add(first, last uint64) {
	// first > cv.last, so cv.last+1 cannot overflow.
	if cv.open && first == cv.last+1 {
		cv.last = last
		return
	}
	if cv.open {
		cv.emit(cv.first, cv.last)
	}
	cv.first, cv.last, cv.open = first, last, true
}

// HilbertGather reorders a stretch of a row-major grid array — x
// fastest, then y, then z, the scanline curve's order — into Hilbert
// order: dst[i] = scan[r] for every i of dst, r being the row-major
// index of c.Point(lo+i). It panics unless c is a Hilbert curve and the
// stretch lies on it.
//
// Rather than decode every id, it walks the curve's digit tree once,
// top down, into the subtrees that hold ids of the stretch.
func HilbertGather[T any](c Curve, dst, scan []T, lo uint64) {
	if c.Kind() != Hilbert {
		panic(fmt.Sprintf("sfc: HilbertGather on a %v curve", c.Kind()))
	}
	hi := lo + uint64(len(dst))
	if hi > c.Length() || hi < lo {
		panic(fmt.Sprintf("sfc: ids [%d,%d) out of range for dim=%d bits=%d", lo, hi, c.Dim(), c.Bits()))
	}
	g := gatherer[T]{dst: dst, scan: scan, lo: lo, hi: hi, bits: uint(c.Bits()), n: 1 << c.Dim()}
	for d, a := range digitAxes[c.Dim()][:g.n] {
		g.offs[d] = uint(a.X) | uint(a.Y)<<g.bits | uint(a.Z)<<(2*g.bits)
	}
	walk(c, lo, hi, nil, g.leaves)
}

// gatherer is one HilbertGather: the arrays, the id range [lo, hi)
// that dst holds, and the row-major offset of each of the n voxels of a
// leaf cube from its least corner, by coordinate digit.
type gatherer[T any] struct {
	dst, scan []T
	lo, hi    uint64
	bits      uint
	n         uint64
	offs      [8]uint
}

func (g *gatherer[T]) leaves(id uint64, lo Point, cs uint64) {
	base := uint(lo.X) | uint(lo.Y)<<g.bits | uint(lo.Z)<<(2*g.bits)
	if id >= g.lo && id+g.n <= g.hi {
		dst, scan := g.dst[id-g.lo:][:g.n], g.scan[base:]
		for i := range dst {
			dst[i] = scan[g.offs[cs>>(8*i)&7]]
		}
		return
	}
	for i := uint64(0); i < g.n; i, id = i+1, id+1 {
		if id >= g.lo && id < g.hi {
			g.dst[id-g.lo] = g.scan[base+g.offs[cs>>(8*i)&7]]
		}
	}
}

// WalkRuns walks the digit tree of c, a Hilbert or Z curve, once over a
// set of ids given as runs, and calls leaf with every leaf cube of the
// tree that holds ids of the set, in increasing order. It panics on any
// other curve.
//
// next pulls the runs [first, last], increasing and disjoint, and
// reports ok=false after the last. The walk pulls each run once, when
// it reaches it, and enters only the nodes that hold ids of a run; ids
// past the curve's end are never reached. A leaf cube holds the 2^dim
// ids from id, a multiple of 2^dim, and leaf is handed the ones it
// shares with the runs as mask: bit i is set when id+i is in the set.
// lo is the cube's least corner and cs packs its voxels' coordinate
// digits, one per byte in curve order, so id+i lies at
// lo + DigitStep(dim, cs>>(8*i)&7).
//
// This is Cover with the classifier's answer read off the run list:
// the "There Goes the Neighborhood" walk, here from ranges of ids to
// the points inside them.
func WalkRuns(c Curve, next func() (first, last uint64, ok bool), leaf func(id uint64, lo Point, cs uint64, mask uint8)) {
	w := runWalker{next: next, leaf: leaf, n: uint64(1) << c.Dim()}
	w.t = tree{hi: c.Length(), node: w.node, leaves: w.leaves, runs: &w}
	w.pull()
	w.t.walk(c)
}

// DigitStep is the unit step a coordinate digit d of a dim-dimensional
// curve makes along each axis: one bit per axis, X most significant (Z
// = 0 on a 2D curve). WalkRuns hands a leaf its voxels' digits.
func DigitStep(dim int, d uint64) Point { return digitAxes[dim][d&7] }

// runWalker is one WalkRuns: the caller's callbacks, the leaf size n,
// the run the walk has reached, [first, last], until done, and the
// tree, whose lower bound is that run's first id.
type runWalker struct {
	next        func() (first, last uint64, ok bool)
	leaf        func(id uint64, lo Point, cs uint64, mask uint8)
	n           uint64
	first, last uint64
	done        bool
	t           tree
}

// pull takes the next run. The ids below it hold no more runs, so the
// tree passes over the nodes there without asking node; past the last
// run it passes over every node.
func (w *runWalker) pull() {
	var ok bool
	w.first, w.last, ok = w.next()
	w.done = !ok
	w.t.lo = w.first
	if w.done {
		w.t.lo = w.t.hi
	}
}

// node enters the cube of ids [id, id+n) when it holds ids of a run.
// The runs before it were left behind for good: the walk only goes up
// the curve.
func (w *runWalker) node(_ uint, id, n uint64, _ Point) Cell {
	for !w.done && w.last < id {
		w.pull()
	}
	if w.done || w.first >= id+n {
		return Out
	}
	return Partial
}

// leaves masks the leaf cube's ids [id, end] the runs hold, pulling the
// runs that end inside it, and hands the cube on unless none is held.
func (w *runWalker) leaves(id uint64, lo Point, cs uint64) {
	end := id + w.n - 1
	var mask uint
	for !w.done && w.first <= end {
		if w.last >= id {
			mask |= 2<<(min(w.last, end)-id) - 1<<(max(w.first, id)-id)
		}
		if w.last > end {
			break
		}
		w.pull()
	}
	if mask != 0 {
		w.leaf(id, lo, cs, uint8(mask))
	}
}

// walk descends the digit tree of c, a Hilbert or Z curve, from the
// root, into the nodes that hold ids of [lo, hi). It calls node, if not
// nil, with every such node above the voxels — the node's level, its
// first id and id count, and its least corner — and enters the children
// only of the nodes node calls Partial. The voxels of a node at level 1
// go to leaves in one call: the node's first id and least corner, and
// the voxels' coordinate digits in curve order, one per byte.
//
// A child's id digit, Gray-coded against its parent's low bit, is
// decoded to a coordinate digit by the state machine under the
// orientation the path to the node has set. The Z curve is the same
// walk in one orientation, the identity, with no carry into the Gray
// code and a table that undoes it.
func walk(c Curve, lo, hi uint64, node func(level uint, id, n uint64, lo Point) Cell, leaves func(id uint64, lo Point, cs uint64)) {
	t := tree{lo: lo, hi: hi, node: node, leaves: leaves}
	t.walk(c)
}

// walk is the walk of t's range and callbacks over c.
func (t *tree) walk(c Curve) {
	switch c := c.(type) {
	case hilbertCurve:
		t.tab, t.carry = hilbertTables[c.dim], 1
	case zCurve:
		t.tab = zTables[c.dim]
	default:
		panic(fmt.Sprintf("sfc: no digit tree to walk on a %v curve", c.Kind()))
	}
	t.dim, t.axes = uint(c.Dim()), &digitAxes[c.Dim()]
	bits := uint(c.Bits())
	if t.node == nil || t.node(bits, 0, c.Length(), Point{}) == Partial {
		t.descend(bits, 0, 0, Point{}, 0)
	}
}

// tree is one walk: the curve's state machine, how a digit's low bit
// enters the next level's Gray code (carry), the id range it covers,
// and the callbacks. A callback may raise lo as the walk goes: the
// nodes wholly below it are then passed over without a call.
type tree struct {
	tab    *digitTable
	dim    uint
	carry  uint64
	axes   *[8]Point
	lo, hi uint64
	node   func(level uint, id, n uint64, lo Point) Cell
	runs   *runWalker // set by WalkRuns, whose leaves it calls directly
	leaves func(id uint64, lo Point, cs uint64)
}

// descend visits the children of the node at level whose first id is
// id and least corner lo, entered in orientation s; prev is the node's
// own id digit.
func (t *tree) descend(level uint, id uint64, s uint16, lo Point, prev uint64) {
	if level == 1 {
		t.leaves(id, lo, t.tab.leaf[s][prev&t.carry])
		return
	}
	top := (prev & t.carry) << (t.dim - 1)
	dec := &t.tab.dec[s]
	level--
	n := uint64(1) << (t.dim * level)
	for d := uint64(0); d < 1<<t.dim; d, id = d+1, id+n {
		if id+n <= t.lo || id >= t.hi {
			continue
		}
		e := dec[d^d>>1^top]
		a := &t.axes[e&7]
		p := Point{X: lo.X | a.X<<level, Y: lo.Y | a.Y<<level, Z: lo.Z | a.Z<<level}
		switch {
		case level == 1 && t.runs != nil: // a direct call; leaves decides the cube
			t.runs.leaves(id, p, t.tab.leaf[e>>3][d&t.carry])
		case t.node != nil && t.node(level, id, n, p) != Partial:
		case level == 1: // the leaves, without a call that would only pass them on
			t.leaves(id, p, t.tab.leaf[e>>3][d&t.carry])
		default:
			t.descend(level, id, e>>3, p, d)
		}
	}
}

// fillLeaves derives leaf from dec for a table of the given number of
// states.
func (tab *digitTable) fillLeaves(dim, states int) {
	for s := 0; s < states; s++ {
		for b := uint64(0); b < 2; b++ {
			var cs uint64
			for d := uint64(0); d < 1<<dim; d++ {
				cs |= uint64(tab.dec[s][d^d>>1^b<<(dim-1)]&7) << (8 * d)
			}
			tab.leaf[s][b] = cs
		}
	}
}

// digitAxes[dim][d] is the unit step coordinate digit d makes along
// each axis: one bit per axis, X most significant (as the Z curve
// interleaves).
var digitAxes = func() (t [4][8]Point) {
	for d := uint32(0); d < 8; d++ {
		t[2][d] = Point{X: d >> 1 & 1, Y: d & 1}
		t[3][d] = Point{X: d >> 2 & 1, Y: d >> 1 & 1, Z: d & 1}
	}
	return t
}()

// zTables[dim] is the Z curve's state machine: one state, the identity,
// taking a Gray-coded digit back to the digit itself.
var zTables = func() (t [4]*digitTable) {
	for dim := 2; dim <= 3; dim++ {
		t[dim] = new(digitTable)
		for d := uint16(0); d < 1<<dim; d++ {
			t[dim].dec[0][d^d>>1] = d
		}
		t[dim].fillLeaves(dim, 1)
	}
	return t
}()
