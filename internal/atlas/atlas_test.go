package atlas

import (
	"testing"

	"qbism/internal/region"
	"qbism/internal/sfc"
)

func build(t *testing.T, bits int, meshes bool) *Atlas {
	t.Helper()
	c := sfc.MustNew(sfc.Hilbert, 3, bits)
	a, err := Build(c, meshes)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestBuildElevenStructures(t *testing.T) {
	a := build(t, 5, false)
	if len(a.Structures) != 11 {
		t.Fatalf("structures = %d, want 11 (as in the paper)", len(a.Structures))
	}
	for _, s := range a.Structures {
		if s.Region.Empty() {
			t.Errorf("structure %s is empty", s.Name)
		}
		if s.ID == 0 || s.Name == "" || s.System == "" {
			t.Errorf("structure %+v incomplete", s)
		}
	}
}

func TestBuildRejects2D(t *testing.T) {
	if _, err := Build(sfc.MustNew(sfc.Hilbert, 2, 5), false); err == nil {
		t.Error("2D curve accepted")
	}
}

func TestHemispheresPartitionBrain(t *testing.T) {
	a := build(t, 5, false)
	brain := a.Brain().Region
	left, _ := a.ByName("ntal1")
	right, _ := a.ByName("ntal2")
	u, err := region.Union(left.Region, right.Region)
	if err != nil {
		t.Fatal(err)
	}
	if !u.Equal(brain) {
		t.Error("hemispheres do not union to the whole brain")
	}
	i, _ := region.Intersect(left.Region, right.Region)
	if !i.Empty() {
		t.Error("hemispheres overlap")
	}
}

func TestStructuresInsideBrainMostly(t *testing.T) {
	// Deep structures must be subsets of the whole brain region.
	a := build(t, 5, false)
	brain := a.Brain().Region
	for _, name := range []string{"putamen", "hippocampus", "thalamus", "ntal"} {
		s, err := a.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := region.Contains(brain, s.Region)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("structure %s extends outside the brain", name)
		}
	}
}

func TestSizeSpectrumAt128(t *testing.T) {
	if testing.Short() {
		t.Skip("128^3 atlas build in -short mode")
	}
	a := build(t, 7, false)
	total := float64(a.Curve.Length())
	left, _ := a.ByName("ntal1")
	ntal, _ := a.ByName("ntal")
	putamen, _ := a.ByName("putamen")
	// Paper: ntal1 162628 voxels (7.8% of grid), ntal 16016 (0.76%).
	lf := float64(left.Region.NumVoxels()) / total
	if lf < 0.04 || lf > 0.15 {
		t.Errorf("hemisphere fraction = %.3f, want ≈0.08", lf)
	}
	nf := float64(ntal.Region.NumVoxels()) / total
	if nf < 0.003 || nf > 0.02 {
		t.Errorf("ntal fraction = %.4f, want ≈0.008", nf)
	}
	if putamen.Region.NumVoxels() >= ntal.Region.NumVoxels() {
		t.Error("putamen should be smaller than ntal")
	}
	t.Logf("128^3 atlas: ntal1=%d ntal=%d putamen=%d voxels (paper: 162628 / 16016 / n.a.)",
		left.Region.NumVoxels(), ntal.Region.NumVoxels(), putamen.Region.NumVoxels())
}

func TestSpecContainsMatchesRegion(t *testing.T) {
	a := build(t, 5, false)
	side := float64(a.Side)
	for _, s := range a.Structures {
		mismatches := 0
		checked := 0
		s.Region.ForEachPoint(func(p sfc.Point) bool {
			checked++
			if checked%7 != 0 {
				return true
			}
			// Sample voxel centers to sidestep boundary quantization.
			if !s.Spec.Contains((float64(p.X))/side, (float64(p.Y))/side, (float64(p.Z))/side) {
				mismatches++
			}
			return true
		})
		if mismatches*20 > checked {
			t.Errorf("structure %s: analytic/volumetric mismatch on %d/%d samples", s.Name, mismatches, checked)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	a := build(t, 4, false)
	if _, err := a.ByName("no-such-structure"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestMeshFromRegionCube(t *testing.T) {
	c := sfc.MustNew(sfc.Hilbert, 3, 4)
	r, err := region.FromBox(c, region.Box{Min: sfc.Pt(2, 2, 2), Max: sfc.Pt(5, 5, 5)})
	if err != nil {
		t.Fatal(err)
	}
	m := MeshFromRegion(r)
	// A 4x4x4 cube has 6 faces x 16 voxel-faces x 2 triangles = 192.
	if m.NumTriangles() != 192 {
		t.Errorf("triangles = %d, want 192", m.NumTriangles())
	}
	// 5x5 lattice points per face, deduplicated: 6*25 - shared edges/corners = 98.
	if len(m.Vertices) != 98 {
		t.Errorf("vertices = %d, want 98", len(m.Vertices))
	}
	min, max, ok := m.Bounds()
	if !ok || min != (Vec3{2, 2, 2}) || max != (Vec3{6, 6, 6}) {
		t.Errorf("bounds = %v..%v", min, max)
	}
}

func TestMeshMarshalRoundTrip(t *testing.T) {
	c := sfc.MustNew(sfc.Hilbert, 3, 4)
	r, _ := region.FromSphere(c, 8, 8, 8, 4)
	m := MeshFromRegion(r)
	data := m.Marshal()
	back, err := UnmarshalMesh(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Vertices) != len(m.Vertices) || len(back.Triangles) != len(m.Triangles) {
		t.Fatalf("round trip sizes differ")
	}
	for i := range m.Vertices {
		if back.Vertices[i] != m.Vertices[i] {
			t.Fatalf("vertex %d differs", i)
		}
	}
	for i := range m.Triangles {
		if back.Triangles[i] != m.Triangles[i] {
			t.Fatalf("triangle %d differs", i)
		}
	}
}

func TestUnmarshalMeshErrors(t *testing.T) {
	if _, err := UnmarshalMesh([]byte{1, 2}); err == nil {
		t.Error("short header accepted")
	}
	c := sfc.MustNew(sfc.Hilbert, 3, 3)
	r, _ := region.FromSphere(c, 4, 4, 4, 2)
	data := MeshFromRegion(r).Marshal()
	if _, err := UnmarshalMesh(data[:len(data)-4]); err == nil {
		t.Error("truncated body accepted")
	}
	// Corrupt a triangle index past the vertex count.
	bad := append([]byte(nil), data...)
	for i := len(bad) - 4; i < len(bad); i++ {
		bad[i] = 0xff
	}
	if _, err := UnmarshalMesh(bad); err == nil {
		t.Error("out-of-range vertex index accepted")
	}
}

func TestMeshesBuiltOnDemand(t *testing.T) {
	withM := build(t, 4, true)
	withoutM := build(t, 4, false)
	if withM.Structures[0].Mesh == nil {
		t.Error("meshes missing when requested")
	}
	if withoutM.Structures[0].Mesh != nil {
		t.Error("meshes built when not requested")
	}
	if _, _, ok := (&Mesh{}).Bounds(); ok {
		t.Error("empty mesh reported bounds")
	}
}

func TestVoxelMMScales(t *testing.T) {
	a := build(t, 5, false) // 32^3 grid of a 200x150x300mm head
	if a.VoxelMM[0] <= 0 || a.VoxelMM[1] <= 0 || a.VoxelMM[2] <= 0 {
		t.Error("non-positive voxel size")
	}
}

func BenchmarkBuildAtlas32(b *testing.B) {
	c := sfc.MustNew(sfc.Hilbert, 3, 5)
	for i := 0; i < b.N; i++ {
		if _, err := Build(c, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildAtlas builds the paper-scale (128^3) atlas without
// meshes, as every load's first job does.
func BenchmarkBuildAtlas(b *testing.B) {
	c := sfc.MustNew(sfc.Hilbert, 3, 7)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(c, false); err != nil {
			b.Fatal(err)
		}
	}
}
