package warp

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// footprintCase is one warp of a study on grid g to a side^3 atlas.
type footprintCase struct {
	name             string
	g                Grid
	atlasFromPatient Affine
	side             int
}

// footprintCases returns seeded warps of every kind the coverage test
// needs: the loader's normalize-and-jitter shape, random rotations and
// anisotropic scales in every plane, warps whose image of the atlas
// overhangs each grid face and all six at once, and one that misses the
// grid entirely.
func footprintCases() []footprintCase {
	rng := rand.New(rand.NewSource(1994))
	g := Grid{NX: 23, NY: 19, NZ: 9}
	const side = 16
	normalize := Scale(side/float64(g.NX), side/float64(g.NY), side/float64(g.NZ))
	cases := []footprintCase{
		{"normalize", g, normalize, side},
		{"magnify", Grid{NX: 64, NY: 64, NZ: 6}, Scale(0.25, 0.25, side/6.0), side},
		{"all faces", g, Translate(3, 3, 2).Compose(Scale(side/float64(g.NX+6), side/float64(g.NY+6), side/float64(g.NZ+4))), side},
		{"misses", g, Translate(-1000, 0, 0).Compose(normalize), side},
	}
	for i := 0; i < 12; i++ {
		// A random linear part near the normalizing scale: rotation and
		// shear in every plane, each axis scaled on its own.
		var jitter Affine
		for r := 0; r < 3; r++ {
			for c := 0; c < 3; c++ {
				jitter.M[r][c] = (rng.Float64() - 0.5) * 0.5
			}
			jitter.M[r][r] += 0.7 + rng.Float64()*0.6
		}
		cases = append(cases, footprintCase{"random", g, normalize.Compose(jitter), side})
	}
	// Shifts that push the image of the atlas off each face in turn.
	for axis := 0; axis < 3; axis++ {
		for _, sign := range []float64{-1, 1} {
			var t [3]float64
			t[axis] = sign * (3 + rng.Float64()*3)
			cases = append(cases, footprintCase{"one face", g, Translate(t[0], t[1], t[2]).Compose(normalize), side})
		}
	}
	return cases
}

// TestFootprintCoversResample is Footprint's contract: Resample reads
// no voxel outside it. Every voxel Footprint leaves out is set to 255,
// and the warped volume must not change by one byte.
func TestFootprintCoversResample(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for i, c := range footprintCases() {
		data := make([]byte, c.g.NumVoxels())
		rng.Read(data)
		mask, err := Footprint(c.g, c.atlasFromPatient, c.side)
		if err != nil {
			t.Fatalf("case %d (%s): %v", i, c.name, err)
		}
		masked := bytes.Clone(data)
		in := 0
		for j := range masked {
			if mask.Has(j) {
				in++
			} else {
				masked[j] = 255
			}
		}
		if c.name == "misses" && in != 0 {
			t.Errorf("case %d (%s): %d voxels marked for a warp off the grid", i, c.name, in)
		}
		want, err := Resample(c.g, data, c.atlasFromPatient, c.side)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Resample(c.g, masked, c.atlasFromPatient, c.side)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("case %d (%s): Resample read a voxel outside the footprint (%d of %d marked)", i, c.name, in, len(masked))
		}
	}
	if _, err := Footprint(Grid{NX: 2, NY: 2, NZ: 2}, Scale(0, 1, 1), 4); err == nil {
		t.Error("singular warp accepted")
	}
	if _, err := Footprint(Grid{NX: 2, NY: 2, NZ: 2}, Identity(), 0); err == nil {
		t.Error("side 0 accepted")
	}
}

// TestInterpolateEqualsTrilinear holds Resample's interior fast path to
// Trilinear bit for bit where the two could part: on cell faces, edges
// and corners, on the grid's last planes, just inside and just outside
// the grid, and at random points.
func TestInterpolateEqualsTrilinear(t *testing.T) {
	g := Grid{NX: 7, NY: 6, NZ: 5}
	data := make([]byte, g.NumVoxels())
	rng := rand.New(rand.NewSource(5))
	rng.Read(data)
	// Coordinates along one axis of n samples: whole numbers (faces,
	// edges, corners when all three are), the edges of the grid and a
	// hair either side of them, and cell interiors.
	along := func(n int) []float64 {
		last := float64(n - 1)
		out := []float64{
			-1, -0.5, math.Nextafter(0, -1), 0, math.Nextafter(0, 1), 0.5,
			math.Nextafter(last, 0), last, math.Nextafter(last, math.Inf(1)), last + 0.5, last + 1,
		}
		for k := 1; k < n-1; k++ {
			out = append(out, float64(k), float64(k)+0.25, math.Nextafter(float64(k), 0))
		}
		return out
	}
	for _, x := range along(g.NX) {
		for _, y := range along(g.NY) {
			for _, z := range along(g.NZ) {
				if got, want := interpolate(g, data, x, y, z), Trilinear(g, data, x, y, z); got != want {
					t.Fatalf("interpolate(%v, %v, %v) = %v, Trilinear %v", x, y, z, got, want)
				}
			}
		}
	}
	for i := 0; i < 100000; i++ {
		x, y, z := rng.Float64()*9-1, rng.Float64()*8-1, rng.Float64()*7-1
		if got, want := interpolate(g, data, x, y, z), Trilinear(g, data, x, y, z); got != want {
			t.Fatalf("interpolate(%v, %v, %v) = %v, Trilinear %v", x, y, z, got, want)
		}
	}
}

// TestToByteEqualsMinMaxRound holds the rounding Resample stores with
// to the library form it replaces, special values included.
func TestToByteEqualsMinMaxRound(t *testing.T) {
	vals := []float64{
		math.Inf(-1), -1e300, -0.5, math.Nextafter(-0.5, 0), math.Copysign(0, -1), 0,
		0.49999999999999994, 0.5, 1.5, 2.5, 127.5, 254.49999999999997, 254.5,
		255, math.Nextafter(255, 256), 255.5, 1e300, math.Inf(1),
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 10000; i++ {
		vals = append(vals, rng.Float64()*300-20)
	}
	for _, v := range vals {
		if got, want := toByte(v), uint8(math.Min(255, math.Max(0, math.Round(v)))); got != want {
			t.Fatalf("toByte(%v) = %d, want %d", v, got, want)
		}
	}
}
