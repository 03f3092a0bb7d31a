// Package atlas builds a procedural stand-in for the digitally extracted
// Talairach & Tournoux atlas the paper uses: 11 neuro-anatomic
// structures represented as REGIONs in a cubic atlas-space grid
// (128x128x128 in the paper), plus triangular surface meshes for
// rendering.
//
// The real atlas is clinical data we cannot ship; this phantom
// reproduces what the experiments depend on — structure count, the size
// spectrum from small deep nuclei (putamen, ~1-2 per mille of the grid)
// up to a full hemisphere (~8% of the grid, the paper's "ntal1"), and
// smooth blob-like shapes whose Hilbert/Z run statistics follow the same
// power-law delta distribution (EQ 1). Geometry is deterministic: the
// same curve always yields the same atlas.
package atlas

import (
	"fmt"

	"qbism/internal/region"
	"qbism/internal/sfc"
)

// StructureSpec is the analytic geometry of one structure: a union of
// ellipsoids, optionally clipped to one side of a sagittal (x) plane.
// Coordinates are fractions of the grid side so the atlas scales.
type StructureSpec struct {
	Name   string
	System string // the neural system the structure belongs to
	// Blobs are union-ed ellipsoids in fractional coordinates.
	Blobs []FracEllipsoid
	// ClipXBelow, when >= 0, keeps only voxels with x < ClipXBelow*side.
	ClipXBelow float64
	// ClipXAbove, when >= 0, keeps only voxels with x >= ClipXAbove*side.
	ClipXAbove float64
}

// FracEllipsoid is an ellipsoid in fractional grid coordinates.
type FracEllipsoid struct {
	CX, CY, CZ float64
	RX, RY, RZ float64
}

// at scales the fractional ellipsoid to a concrete grid side.
func (f FracEllipsoid) at(side float64) region.Ellipsoid {
	return region.Ellipsoid{
		CX: f.CX * side, CY: f.CY * side, CZ: f.CZ * side,
		RX: f.RX * side, RY: f.RY * side, RZ: f.RZ * side,
	}
}

// Contains reports whether the fractional point (x, y, z in [0,1)) is
// inside the structure — the analytic form used by the study synthesizer.
func (s *StructureSpec) Contains(x, y, z float64) bool {
	if s.ClipXBelow >= 0 && x >= s.ClipXBelow {
		return false
	}
	if s.ClipXAbove >= 0 && x < s.ClipXAbove {
		return false
	}
	for _, b := range s.Blobs {
		dx := (x - b.CX) / b.RX
		dy := (y - b.CY) / b.RY
		dz := (z - b.CZ) / b.RZ
		if dx*dx+dy*dy+dz*dz <= 1 {
			return true
		}
	}
	return false
}

// Specs returns the 11 structure specifications. The brain itself is
// Specs()[0] ("ntal0", the whole-head reference); "ntal" and "ntal1"
// reproduce the paper's example structures (a mid-sized deep structure
// and one hemisphere).
func Specs() []StructureSpec {
	brain := []FracEllipsoid{{CX: 0.50, CY: 0.53, CZ: 0.48, RX: 0.33, RY: 0.40, RZ: 0.31}}
	return []StructureSpec{
		{Name: "ntal0", System: "whole brain", Blobs: brain, ClipXBelow: -1, ClipXAbove: -1},
		{Name: "ntal1", System: "whole brain", Blobs: brain, ClipXBelow: 0.5, ClipXAbove: -1}, // left hemisphere
		{Name: "ntal2", System: "whole brain", Blobs: brain, ClipXBelow: -1, ClipXAbove: 0.5}, // right hemisphere
		{Name: "ntal", System: "limbic", ClipXBelow: -1, ClipXAbove: -1, Blobs: []FracEllipsoid{ // deep mid structure ≈ paper's ntal
			{CX: 0.50, CY: 0.55, CZ: 0.45, RX: 0.14, RY: 0.11, RZ: 0.12},
		}},
		{Name: "putamen", System: "basal ganglia", ClipXBelow: -1, ClipXAbove: -1, Blobs: []FracEllipsoid{
			{CX: 0.38, CY: 0.52, CZ: 0.46, RX: 0.045, RY: 0.085, RZ: 0.055},
		}},
		{Name: "hippocampus", System: "limbic", ClipXBelow: -1, ClipXAbove: -1, Blobs: []FracEllipsoid{
			{CX: 0.40, CY: 0.62, CZ: 0.40, RX: 0.05, RY: 0.11, RZ: 0.045},
			{CX: 0.42, CY: 0.70, CZ: 0.43, RX: 0.04, RY: 0.06, RZ: 0.04},
		}},
		{Name: "caudate", System: "basal ganglia", ClipXBelow: -1, ClipXAbove: -1, Blobs: []FracEllipsoid{
			{CX: 0.44, CY: 0.45, CZ: 0.52, RX: 0.035, RY: 0.10, RZ: 0.045},
		}},
		{Name: "thalamus", System: "diencephalon", ClipXBelow: -1, ClipXAbove: -1, Blobs: []FracEllipsoid{
			{CX: 0.50, CY: 0.56, CZ: 0.48, RX: 0.09, RY: 0.07, RZ: 0.06},
		}},
		{Name: "amygdala", System: "limbic", ClipXBelow: -1, ClipXAbove: -1, Blobs: []FracEllipsoid{
			{CX: 0.37, CY: 0.58, CZ: 0.38, RX: 0.04, RY: 0.045, RZ: 0.04},
		}},
		{Name: "cerebellum", System: "hindbrain", ClipXBelow: -1, ClipXAbove: -1, Blobs: []FracEllipsoid{
			{CX: 0.50, CY: 0.72, CZ: 0.30, RX: 0.17, RY: 0.13, RZ: 0.11},
		}},
		{Name: "brainstem", System: "hindbrain", ClipXBelow: -1, ClipXAbove: -1, Blobs: []FracEllipsoid{
			{CX: 0.50, CY: 0.60, CZ: 0.28, RX: 0.045, RY: 0.05, RZ: 0.14},
		}},
	}
}

// Structure is one built atlas structure.
type Structure struct {
	ID     int
	Name   string
	System string
	Spec   StructureSpec
	Region *region.Region
	Mesh   *Mesh
}

// Atlas is a built reference atlas over a concrete grid.
type Atlas struct {
	Name       string
	Curve      sfc.Curve
	Side       int
	VoxelMM    [3]float64 // voxel size in millimetres
	Structures []*Structure
}

// Build constructs the atlas on the given 3D curve. Surface meshes are
// built when withMeshes is set (they are only needed for rendering and
// cost time on large grids).
func Build(c sfc.Curve, withMeshes bool) (*Atlas, error) {
	if c.Dim() != 3 {
		return nil, fmt.Errorf("atlas: need a 3D curve, got %dD", c.Dim())
	}
	side := 1 << c.Bits()
	a := &Atlas{
		Name:    "Talairach-phantom",
		Curve:   c,
		Side:    side,
		VoxelMM: [3]float64{200.0 / float64(side), 150.0 / float64(side), 300.0 / float64(side)},
	}
	for i, spec := range Specs() {
		r, err := buildRegion(c, spec)
		if err != nil {
			return nil, fmt.Errorf("atlas: structure %s: %v", spec.Name, err)
		}
		st := &Structure{ID: i + 1, Name: spec.Name, System: spec.System, Spec: spec, Region: r}
		if withMeshes {
			st.Mesh = MeshFromRegion(r)
		}
		a.Structures = append(a.Structures, st)
	}
	return a, nil
}

// buildRegion materializes a spec on the grid: union of ellipsoids, then
// the optional hemisphere clip.
func buildRegion(c sfc.Curve, spec StructureSpec) (*region.Region, error) {
	side := float64(int(1) << c.Bits())
	acc := region.Empty(c)
	for _, b := range spec.Blobs {
		r, err := region.FromEllipsoid(c, b.at(side))
		if err != nil {
			return nil, err
		}
		acc, err = region.Union(acc, r)
		if err != nil {
			return nil, err
		}
	}
	if spec.ClipXBelow >= 0 || spec.ClipXAbove >= 0 {
		lo, hi := 0.0, side
		if spec.ClipXAbove >= 0 {
			lo = spec.ClipXAbove * side
		}
		if spec.ClipXBelow >= 0 {
			hi = spec.ClipXBelow * side
		}
		clip, err := region.FromBox(c, region.Box{
			Min: sfc.Pt(uint32(lo), 0, 0),
			Max: sfc.Pt(uint32(hi)-1, uint32(side)-1, uint32(side)-1),
		})
		if err != nil {
			return nil, err
		}
		acc, err = region.Intersect(acc, clip)
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// ByName finds a structure by name.
func (a *Atlas) ByName(name string) (*Structure, error) {
	for _, s := range a.Structures {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("atlas: no structure named %q", name)
}

// Brain returns the whole-brain structure (ntal0).
func (a *Atlas) Brain() *Structure { return a.Structures[0] }
