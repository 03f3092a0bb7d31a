package sfc

import "fmt"

// hilbertCurve implements Curve as a table-driven state machine over
// the curve Skilling's transposition algorithm defines ("Programming
// the Hilbert curve", AIP Conf. Proc. 707, 2004 — a generalization of
// the Butz algorithm the paper cites [4]). Both directions walk the
// levels from the most significant down, one table lookup per level;
// the Skilling loops themselves live on in skilling_test.go as the
// oracle the tables are checked against bit for bit.
type hilbertCurve struct {
	dim  int
	bits int
}

func (h hilbertCurve) Kind() Kind     { return Hilbert }
func (h hilbertCurve) Dim() int       { return h.dim }
func (h hilbertCurve) Bits() int      { return h.bits }
func (h hilbertCurve) Length() uint64 { return uint64(1) << (h.dim * h.bits) }

func (h hilbertCurve) ID(p Point) uint64 {
	// Level by level, the coordinate digit (one bit per axis, X most
	// significant — a Z-order digit) maps to a digit of the id's Gray
	// code under the current orientation. The Z curve range-checks p.
	m := zCurve(h).ID(p)
	enc := &hilbertTables[h.dim].enc
	dim, mask := uint(h.dim), uint64(1)<<h.dim-1
	var g uint64
	var s uint16
	for shift := dim * uint(h.bits); shift > 0; {
		shift -= dim
		e := enc[s][m>>shift&mask]
		g = g<<dim | uint64(e&7)
		s = e >> 3
	}
	// Gray code to binary: each bit is the XOR of all higher Gray bits.
	g ^= g >> 1
	g ^= g >> 2
	g ^= g >> 4
	g ^= g >> 8
	g ^= g >> 16
	g ^= g >> 32
	return g
}

func (h hilbertCurve) Point(id uint64) Point {
	checkID(id, h.dim, h.bits)
	dec := &hilbertTables[h.dim].dec
	dim, mask := uint(h.dim), uint64(1)<<h.dim-1
	g := id ^ id>>1
	var m uint64
	var s uint16
	for shift := dim * uint(h.bits); shift > 0; {
		shift -= dim
		e := dec[s][g>>shift&mask]
		m = m<<dim | uint64(e&7)
		s = e >> 3
	}
	return zCurve(h).Point(m)
}

// hilbertTable is the state machine for one dimensionality. A state is
// an orientation: the signed axis permutation the levels above have
// applied to everything below them. Entries pack next<<3 | digit.
type hilbertTable struct {
	dec [48][8]uint16 // [state][Gray-code digit] -> coordinate digit
	enc [48][8]uint16 // [state][coordinate digit] -> Gray-code digit
}

// hilbertTables is indexed by dimension (2 or 3).
var hilbertTables = [4]*hilbertTable{2: newHilbertTable(2), 3: newHilbertTable(3)}

// digitMap is a function on level digits, tabulated; orientations and
// Skilling's per-level transforms are both digitMaps, so composing them
// is indexing one by the other.
type digitMap [8]uint8

// newHilbertTable derives the state machine from Skilling's algorithm.
// Decoding there Gray-codes the id and then, from the least significant
// level up, lets level q transform every bit below it: for each axis i
// from the last down, a set bit q of x[i] inverts the low bits of x[0],
// a clear one swaps the low bits of x[0] and x[i]. Each step acts alike
// on every lower level, so the levels above q contribute one signed
// axis permutation to level q — the state — and reading from the top
// the next state is the current one composed with level q's transform.
// At most 2^dim * dim! = 48 orientations exist.
func newHilbertTable(dim int) *hilbertTable {
	n := 1 << dim
	top := uint8(n >> 1) // axis 0 is the most significant bit of a digit
	var identity digitMap
	for d := range identity {
		identity[d] = uint8(d)
	}
	// level[g] is the transform a level with Gray digit g applies below.
	var level [8]digitMap
	for g := 0; g < n; g++ {
		t := identity
		for i := dim - 1; i >= 0; i-- {
			bit := top >> i
			for d := 0; d < n; d++ {
				v := t[d]
				if uint8(g)&bit != 0 {
					v ^= top
				} else if (v&top != 0) != (v&bit != 0) {
					v ^= top | bit
				}
				t[d] = v
			}
		}
		level[g] = t
	}
	tab := new(hilbertTable)
	states := []digitMap{identity}
	for s := 0; s < len(states); s++ {
		cur := states[s]
		for g := 0; g < n; g++ {
			var next digitMap
			for d := 0; d < n; d++ {
				next[d] = cur[level[g][d]]
			}
			ns := 0
			for ns < len(states) && states[ns] != next {
				ns++
			}
			if ns == len(states) {
				states = append(states, next)
			}
			c := cur[g]
			tab.dec[s][g] = uint16(ns)<<3 | uint16(c)
			tab.enc[s][c] = uint16(ns)<<3 | uint16(g)
		}
	}
	return tab
}

// HilbertGather reorders a stretch of a row-major grid array — x
// fastest, then y, then z, the scanline curve's order — into Hilbert
// order: dst[i] = scan[r] for every i of dst, r being the row-major
// index of c.Point(lo+i). It panics unless c is a Hilbert curve and the
// stretch lies on it.
//
// Rather than decode every id, it walks the curve's digit tree once,
// top down: a node's children are its id digits in order, each
// Gray-coded against its parent's low bit and decoded by the state
// machine under the orientation the path to the node has set, and each
// coordinate digit adds its level's row-major offset to the node's.
func HilbertGather[T any](c Curve, dst, scan []T, lo uint64) {
	h, ok := c.(hilbertCurve)
	if !ok {
		panic(fmt.Sprintf("sfc: HilbertGather on a %v curve", c.Kind()))
	}
	hi := lo + uint64(len(dst))
	if hi > h.Length() || hi < lo {
		panic(fmt.Sprintf("sfc: ids [%d,%d) out of range for dim=%d bits=%d", lo, hi, h.dim, h.bits))
	}
	dim, side := uint(h.dim), 1<<h.bits
	// offs[k][d] is the row-major offset coordinate digit d contributes
	// at level k, the most significant level first. A digit holds one
	// bit per axis, X most significant (as the Z curve interleaves).
	offs := make([][8]int, h.bits)
	for k := range offs {
		for d := 0; d < 1<<dim; d++ {
			x, y, z := d>>(dim-1)&1, d>>(dim-2)&1, 0
			if dim == 3 {
				z = d & 1
			}
			offs[k][d] = (x + y*side + z*side*side) << (h.bits - 1 - k)
		}
	}
	w := treeWalk[T]{dec: &hilbertTables[h.dim].dec, dim: dim, offs: offs, dst: dst, scan: scan, lo: lo, hi: hi}
	w.visit(0, 0, 0, 0, 0)
}

// treeWalk is one HilbertGather: the curve's decoding table, the
// per-level offsets, and the id range [lo, hi) that dst holds.
type treeWalk[T any] struct {
	dec       *[48][8]uint16
	dim       uint
	offs      [][8]int
	dst, scan []T
	lo, hi    uint64
}

// visit walks the children of a node at level k whose first id is id,
// entered in orientation s at row-major offset base; prev is the node's
// own id digit, whose low bit enters its children's Gray code.
func (w *treeWalk[T]) visit(k int, id uint64, s uint16, base int, prev uint64) {
	n := uint64(1) << w.dim
	top := (prev & 1) << (w.dim - 1)
	dec, offs := &w.dec[s], &w.offs[k]
	if k == len(w.offs)-1 {
		for d := uint64(0); d < n; d, id = d+1, id+1 {
			if id >= w.lo && id < w.hi {
				w.dst[id-w.lo] = w.scan[base+offs[dec[d^d>>1^top]&7]]
			}
		}
		return
	}
	span := uint64(1) << (w.dim * uint(len(w.offs)-1-k))
	for d := uint64(0); d < n; d, id = d+1, id+span {
		if id+span <= w.lo || id >= w.hi {
			continue
		}
		e := dec[d^d>>1^top]
		w.visit(k+1, id, e>>3, base+offs[e&7], d)
	}
}
