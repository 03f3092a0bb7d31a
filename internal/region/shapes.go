package region

import (
	"fmt"

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

// NumVoxels returns the number of grid points in the box.
func (b Box) NumVoxels() uint64 {
	return uint64(b.Max.X-b.Min.X+1) * uint64(b.Max.Y-b.Min.Y+1) * uint64(b.Max.Z-b.Min.Z+1)
}

// FromBox builds the region of all grid points inside the box, e.g. the
// paper's Q2 "71x71x71 rectangular solid with corners (30,30,30) and
// (100,100,100)". It enumerates box points directly rather than scanning
// the whole grid.
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
	ids := make([]uint64, 0, b.NumVoxels())
	for z := b.Min.Z; ; z++ {
		for y := b.Min.Y; ; y++ {
			for x := b.Min.X; ; x++ {
				ids = append(ids, c.ID(sfc.Pt(x, y, z)))
				if x == b.Max.X {
					break
				}
			}
			if y == b.Max.Y {
				break
			}
		}
		if z == b.Max.Z || c.Dim() == 2 {
			break
		}
	}
	return FromIDs(c, ids)
}

// Ellipsoid is an axis-aligned ellipsoid: center (CX,CY,CZ) and semi-axes
// (RX,RY,RZ) in voxel units.
type Ellipsoid struct {
	CX, CY, CZ float64
	RX, RY, RZ float64
}

// Contains reports whether grid point p lies inside the ellipsoid.
func (e Ellipsoid) Contains(p sfc.Point) bool {
	dx := (float64(p.X) - e.CX) / e.RX
	dy := (float64(p.Y) - e.CY) / e.RY
	dz := (float64(p.Z) - e.CZ) / e.RZ
	return dx*dx+dy*dy+dz*dz <= 1.0
}

// FromEllipsoid builds the region of grid points inside the ellipsoid.
// It scans only the ellipsoid's bounding box.
func FromEllipsoid(c sfc.Curve, e Ellipsoid) (*Region, error) {
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
	var ids []uint64
	for z := b.Min.Z; ; z++ {
		for y := b.Min.Y; ; y++ {
			for x := b.Min.X; ; x++ {
				if p := sfc.Pt(x, y, z); e.Contains(p) {
					ids = append(ids, c.ID(p))
				}
				if x == b.Max.X {
					break
				}
			}
			if y == b.Max.Y {
				break
			}
		}
		if z == b.Max.Z {
			break
		}
	}
	return FromIDs(c, ids)
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
