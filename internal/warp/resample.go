package warp

import (
	"fmt"
	"math"

	"qbism/internal/par"
)

// Grid describes a raw study's sampling grid in scanline order: NX
// varies fastest. It need not be cubic — the paper's raw MRI studies are
// 512x512x44 and PETs are 128x128x51 before warping.
type Grid struct {
	NX, NY, NZ int
}

// NumVoxels returns the total sample count.
func (g Grid) NumVoxels() int { return g.NX * g.NY * g.NZ }

// At returns the sample at integer coordinates, or 0 outside the grid.
func (g Grid) at(data []byte, x, y, z int) float64 {
	if x < 0 || y < 0 || z < 0 || x >= g.NX || y >= g.NY || z >= g.NZ {
		return 0
	}
	return float64(data[(z*g.NY+y)*g.NX+x])
}

// Trilinear samples data (scanline order on g) at the continuous
// position (x, y, z) with trilinear interpolation, treating space
// outside the grid as intensity 0.
func Trilinear(g Grid, data []byte, x, y, z float64) float64 {
	x0, y0, z0 := math.Floor(x), math.Floor(y), math.Floor(z)
	fx, fy, fz := x-x0, y-y0, z-z0
	ix, iy, iz := int(x0), int(y0), int(z0)
	var acc float64
	for dz := 0; dz < 2; dz++ {
		wz := fz
		if dz == 0 {
			wz = 1 - fz
		}
		for dy := 0; dy < 2; dy++ {
			wy := fy
			if dy == 0 {
				wy = 1 - fy
			}
			for dx := 0; dx < 2; dx++ {
				wx := fx
				if dx == 0 {
					wx = 1 - fx
				}
				w := wx * wy * wz
				if w != 0 {
					acc += w * g.at(data, ix+dx, iy+dy, iz+dz)
				}
			}
		}
	}
	return acc
}

// resampleGrain is the fewest output voxels worth handing to another
// goroutine.
const resampleGrain = 1 << 15

// Resample produces a cubic side^3 volume in scanline order by pulling
// samples from the raw study through the inverse of atlasFromPatient:
// for every atlas voxel we find the corresponding patient-space point
// and interpolate. This is the warp-and-resample step performed at
// database load time (Section 2.2).
func Resample(g Grid, data []byte, atlasFromPatient Affine, side int) ([]byte, error) {
	if g.NumVoxels() != len(data) {
		return nil, fmt.Errorf("warp: grid %dx%dx%d does not match %d samples", g.NX, g.NY, g.NZ, len(data))
	}
	if side < 1 {
		return nil, fmt.Errorf("warp: invalid output side %d", side)
	}
	inv, err := atlasFromPatient.Inverse()
	if err != nil {
		return nil, fmt.Errorf("warp: cannot invert warp: %v", err)
	}
	out := make([]byte, side*side*side)
	// Every output voxel is independent; slabs of slices run in parallel.
	par.For(side, 1+resampleGrain/(side*side), func(z0, z1 int) {
		i := z0 * side * side
		for z := z0; z < z1; z++ {
			for y := 0; y < side; y++ {
				for x := 0; x < side; x++ {
					px, py, pz := inv.Apply(float64(x), float64(y), float64(z))
					v := Trilinear(g, data, px, py, pz)
					out[i] = uint8(math.Min(255, math.Max(0, math.Round(v))))
					i++
				}
			}
		}
	})
	return out, nil
}
