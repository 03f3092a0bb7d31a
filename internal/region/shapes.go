package region

import (
	"fmt"
	"math"

	"qbism/internal/sfc"
)

// Geometric constructors. These produce the query REGIONs of the paper's
// experiments: rectangular solids (query Q2), and the ellipsoidal blobs
// the synthetic atlas builds anatomical structures from.

// Box is an axis-aligned rectangular solid given by inclusive corners.
type Box struct {
	Min, Max sfc.Point
}

// Contains reports whether p is inside the box.
func (b Box) Contains(p sfc.Point) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// cell classifies the cube [lo, hi] against the box, as sfc.Cover asks.
func (b Box) cell(lo, hi sfc.Point) sfc.Cell {
	switch {
	case hi.X < b.Min.X || lo.X > b.Max.X || hi.Y < b.Min.Y || lo.Y > b.Max.Y || hi.Z < b.Min.Z || lo.Z > b.Max.Z:
		return sfc.Out
	case b.Contains(lo) && b.Contains(hi):
		return sfc.In
	}
	return sfc.Partial
}

// FromBox builds the region of all grid points inside the box, e.g. the
// paper's Q2 "71x71x71 rectangular solid with corners (30,30,30) and
// (100,100,100)". On a Hilbert or Z curve it walks the curve's octree
// (sfc.Cover), taking whole the aligned cubes inside the box, so its
// cost follows the box's surface, not its volume.
func FromBox(c sfc.Curve, b Box) (*Region, error) {
	r := new(Region)
	if err := FromBoxInto(r, c, b, nil); err != nil {
		return nil, err
	}
	return r, nil
}

// FromBoxInto makes dst, in place, the region FromBox returns, as Refill
// does: its runs are built in buf's backing when it has room for them
// all, and in a new run list of exactly their number otherwise. dst must
// not be read while it is built, so buf may be dst's own run list. On an
// error dst is left unchanged.
func FromBoxInto(dst *Region, c sfc.Curve, b Box, buf []Run) error {
	side := uint32(1) << c.Bits()
	if b.Min.X > b.Max.X || b.Min.Y > b.Max.Y || b.Min.Z > b.Max.Z {
		return fmt.Errorf("region: inverted box %v..%v", b.Min, b.Max)
	}
	if b.Max.X >= side || b.Max.Y >= side || (c.Dim() == 3 && b.Max.Z >= side) {
		return fmt.Errorf("region: box %v..%v exceeds grid side %d", b.Min, b.Max, side)
	}
	if c.Dim() == 2 && (b.Min.Z != 0 || b.Max.Z != 0) {
		return fmt.Errorf("region: 2D box must have Z=0")
	}
	fromCells(dst, c, b, b.cell, buf)
	return nil
}

// Ellipsoid is an axis-aligned ellipsoid: center (CX,CY,CZ) and semi-axes
// (RX,RY,RZ) in voxel units.
type Ellipsoid struct {
	CX, CY, CZ float64
	RX, RY, RZ float64
}

// Contains reports whether grid point p lies inside the ellipsoid.
func (e Ellipsoid) Contains(p sfc.Point) bool {
	return e.dist2(float64(p.X), float64(p.Y), float64(p.Z)) <= 1.0
}

// dist2 is the squared normalized distance of (x,y,z) from the centre:
// at most 1 inside the ellipsoid.
func (e Ellipsoid) dist2(x, y, z float64) float64 {
	dx := (x - e.CX) / e.RX
	dy := (y - e.CY) / e.RY
	dz := (z - e.CZ) / e.RZ
	return dx*dx + dy*dy + dz*dz
}

// ellipsoidEps is the margin by which a cube must clear the surface to
// be decided whole; within it the walk goes down to single voxels, which
// Contains decides. Rounding is monotone, so the cube tests below round
// no point across the surface that Contains would not; the margin keeps
// that so should a compiler round the two differently (Go lets it fuse
// x*y+z).
const ellipsoidEps = 1e-9

// cell classifies the cube [lo, hi]: Out when even its point nearest
// the centre lies outside, In when all eight corners lie inside (the
// ellipsoid is convex, so then does the whole cube), and a single voxel
// by Contains. The squared distance is a sum over axes, so the corner
// farthest from the centre takes the larger term on each.
func (e Ellipsoid) cell(lo, hi sfc.Point) sfc.Cell {
	if lo == hi {
		if e.Contains(lo) {
			return sfc.In
		}
		return sfc.Out
	}
	var near, far float64
	for _, a := range [3]struct{ c, r, lo, hi float64 }{
		{e.CX, e.RX, float64(lo.X), float64(hi.X)},
		{e.CY, e.RY, float64(lo.Y), float64(hi.Y)},
		{e.CZ, e.RZ, float64(lo.Z), float64(hi.Z)},
	} {
		l, h := (a.lo-a.c)/a.r, (a.hi-a.c)/a.r
		l, h = l*l, h*h
		if a.c < a.lo || a.c > a.hi {
			near += min(l, h)
		}
		far += max(l, h)
	}
	switch {
	case near > 1+ellipsoidEps:
		return sfc.Out
	case far < 1-ellipsoidEps:
		return sfc.In
	}
	return sfc.Partial
}

// FromEllipsoid builds the region of grid points inside the ellipsoid
// that lie in its bounding box clamped to the grid. On a Hilbert or Z
// curve it walks the curve's octree, deciding whole the cubes that
// clear the surface and the voxels near it by Contains.
func FromEllipsoid(c sfc.Curve, e Ellipsoid) (*Region, error) {
	for _, v := range [...]float64{e.CX, e.CY, e.CZ, e.RX, e.RY, e.RZ} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("region: ellipsoid with a non-finite centre or semi-axis %+v", e)
		}
	}
	if e.RX <= 0 || e.RY <= 0 || e.RZ <= 0 {
		return nil, fmt.Errorf("region: ellipsoid with non-positive semi-axis %+v", e)
	}
	side := float64(uint32(1) << c.Bits())
	clamp := func(v float64) uint32 {
		if v < 0 {
			return 0
		}
		if v > side-1 {
			return uint32(side - 1)
		}
		return uint32(v)
	}
	b := Box{
		Min: sfc.Pt(clamp(e.CX-e.RX), clamp(e.CY-e.RY), clamp(e.CZ-e.RZ)),
		Max: sfc.Pt(clamp(e.CX+e.RX), clamp(e.CY+e.RY), clamp(e.CZ+e.RZ)),
	}
	if c.Dim() == 2 {
		b.Min.Z, b.Max.Z = 0, 0
	}
	r := new(Region)
	fromCells(r, c, b, func(lo, hi sfc.Point) sfc.Cell {
		// Out where either b or the ellipsoid says Out, In only where both say In.
		in := b.cell(lo, hi)
		if in == sfc.Out {
			return sfc.Out
		}
		if v := e.cell(lo, hi); v != sfc.In {
			return v
		}
		return in
	}, nil)
	return r, nil
}

// fromCells makes dst the region of the voxels of bound that classify
// calls In; classify follows sfc.Cover's contract and calls every cube
// outside bound Out. On a Hilbert or Z curve one walk counts the runs
// and a second fills them into buf's backing, or into a run list of
// exactly that size when buf is short; a scanline curve, whose aligned
// cubes are not id ranges, asks about bound voxel by voxel.
func fromCells(dst *Region, c sfc.Curve, bound Box, classify func(lo, hi sfc.Point) sfc.Cell, buf []Run) {
	if c.Kind() == sfc.Scanline {
		var ids []uint64
		for z := bound.Min.Z; z <= bound.Max.Z; z++ {
			for y := bound.Min.Y; y <= bound.Max.Y; y++ {
				for x := bound.Min.X; x <= bound.Max.X; x++ {
					if p := sfc.Pt(x, y, z); classify(p, p) == sfc.In {
						ids = append(ids, c.ID(p))
					}
				}
			}
		}
		r, _ := fromOwnedIDs(c, ids)
		*dst = *r
		return
	}
	n := 0
	sfc.Cover(c, classify, func(_, _ uint64) { n++ })
	runs := buf[:0]
	if cap(runs) < n {
		runs = make([]Run, 0, n)
	}
	sfc.Cover(c, classify, func(first, last uint64) { runs = append(runs, Run{Lo: first, Hi: last}) })
	dst.curve, dst.runs = c, runs
}

// FromSphere builds a spherical region of the given center and radius.
func FromSphere(c sfc.Curve, cx, cy, cz, radius float64) (*Region, error) {
	return FromEllipsoid(c, Ellipsoid{CX: cx, CY: cy, CZ: cz, RX: radius, RY: radius, RZ: radius})
}
