package region

import (
	"fmt"
	"math"

	"qbism/internal/sfc"
)

// Geometric constructors. These produce the query REGIONs of the paper's
// experiments: rectangular solids (query Q2), and the ellipsoidal blobs
// the synthetic atlas builds anatomical structures from.

// FromOctantList rebuilds a region from an octant list (the inverse of
// the Octants/OblongOctants decompositions, modulo normalization).
func FromOctantList(c sfc.Curve, octs []Octant) (*Region, error) {
	runs := make([]Run, 0, len(octs))
	maxRank := uint8(c.Dim() * c.Bits())
	for _, o := range octs {
		if o.Rank > maxRank {
			return nil, fmt.Errorf("region: octant rank %d exceeds grid rank %d", o.Rank, maxRank)
		}
		if o.ID%o.Len() != 0 {
			return nil, fmt.Errorf("region: octant %v is not aligned", o)
		}
		runs = append(runs, o.Run())
	}
	return FromOwnedRuns(c, runs)
}

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

// NumVoxels returns the number of grid points in the box.
func (b Box) NumVoxels() uint64 {
	return uint64(b.Max.X-b.Min.X+1) * uint64(b.Max.Y-b.Min.Y+1) * uint64(b.Max.Z-b.Min.Z+1)
}

// FromBox builds the region of all grid points inside the box, e.g. the
// paper's Q2 "71x71x71 rectangular solid with corners (30,30,30) and
// (100,100,100)". On a Hilbert or Z curve it walks the curve's octree
// (sfc.Cover), taking whole the aligned cubes inside the box, so its
// cost follows the box's surface, not its volume.
func FromBox(c sfc.Curve, b Box) (*Region, error) {
	side := uint32(1) << c.Bits()
	if b.Min.X > b.Max.X || b.Min.Y > b.Max.Y || b.Min.Z > b.Max.Z {
		return nil, fmt.Errorf("region: inverted box %v..%v", b.Min, b.Max)
	}
	if b.Max.X >= side || b.Max.Y >= side || (c.Dim() == 3 && b.Max.Z >= side) {
		return nil, fmt.Errorf("region: box %v..%v exceeds grid side %d", b.Min, b.Max, side)
	}
	if c.Dim() == 2 && (b.Min.Z != 0 || b.Max.Z != 0) {
		return nil, fmt.Errorf("region: 2D box must have Z=0")
	}
	return fromCells(c, b, b.cell), nil
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
	return fromCells(c, b, func(lo, hi sfc.Point) sfc.Cell {
		// Out where either b or the ellipsoid says Out, In only where both say In.
		in := b.cell(lo, hi)
		if in == sfc.Out {
			return sfc.Out
		}
		if v := e.cell(lo, hi); v != sfc.In {
			return v
		}
		return in
	}), nil
}

// fromCells builds the region of the voxels of bound that classify
// calls In; classify follows sfc.Cover's contract and calls every cube
// outside bound Out. On a Hilbert or Z curve one walk counts the runs
// and a second fills a run list of exactly that size; a scanline curve,
// whose aligned cubes are not id ranges, asks about bound voxel by
// voxel.
func fromCells(c sfc.Curve, bound Box, classify func(lo, hi sfc.Point) sfc.Cell) *Region {
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
		return r
	}
	n := 0
	sfc.Cover(c, classify, func(_, _ uint64) { n++ })
	r := &Region{curve: c, runs: make([]Run, 0, n)}
	sfc.Cover(c, classify, func(first, last uint64) { r.runs = append(r.runs, Run{Lo: first, Hi: last}) })
	return r
}

// FromSphere builds a spherical region of the given center and radius.
func FromSphere(c sfc.Curve, cx, cy, cz, radius float64) (*Region, error) {
	return FromEllipsoid(c, Ellipsoid{CX: cx, CY: cy, CZ: cz, RX: radius, RY: radius, RZ: radius})
}

// FromBoxes unions several boxes into one region.
func FromBoxes(c sfc.Curve, boxes []Box) (*Region, error) {
	acc := Empty(c)
	for _, b := range boxes {
		r, err := FromBox(c, b)
		if err != nil {
			return nil, err
		}
		acc, err = Union(acc, r)
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}
