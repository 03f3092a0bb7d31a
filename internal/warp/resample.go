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

// at returns the sample at integer coordinates, or 0 outside the grid.
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

// interior reports whether the cell with lowest corner (ix, iy, iz)
// lies wholly inside the grid, far corners included.
func (g Grid) interior(ix, iy, iz int) bool {
	return ix >= 0 && iy >= 0 && iz >= 0 && ix < g.NX-1 && iy < g.NY-1 && iz < g.NZ-1
}

// interpolate is Trilinear with an interior fast path: a cell wholly inside
// the grid reads its eight corners by offset from the lowest one, with
// no per-corner bounds check. The weights, the zero-weight skips and
// the order of the sum are Trilinear's — x fastest, then y, then z — so
// the result is the same to the bit; cells on the edge of the grid go
// through Trilinear itself.
func interpolate(g Grid, data []byte, x, y, z float64) float64 {
	x0, y0, z0 := math.Floor(x), math.Floor(y), math.Floor(z)
	ix, iy, iz := int(x0), int(y0), int(z0)
	if !g.interior(ix, iy, iz) {
		return Trilinear(g, data, x, y, z)
	}
	fx, fy, fz := x-x0, y-y0, z-z0
	gx, gy, gz := 1-fx, 1-fy, 1-fz
	i := (iz*g.NY+iy)*g.NX + ix
	j := i + g.NX // the cell's far row in y
	var acc float64
	if w := gx * gy * gz; w != 0 {
		acc += w * float64(data[i])
	}
	if w := fx * gy * gz; w != 0 {
		acc += w * float64(data[i+1])
	}
	if w := gx * fy * gz; w != 0 {
		acc += w * float64(data[j])
	}
	if w := fx * fy * gz; w != 0 {
		acc += w * float64(data[j+1])
	}
	i, j = i+g.NX*g.NY, j+g.NX*g.NY // the far slice in z
	if w := gx * gy * fz; w != 0 {
		acc += w * float64(data[i])
	}
	if w := fx * gy * fz; w != 0 {
		acc += w * float64(data[i+1])
	}
	if w := gx * fy * fz; w != 0 {
		acc += w * float64(data[j])
	}
	if w := fx * fy * fz; w != 0 {
		acc += w * float64(data[j+1])
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
// database load time (Section 2.2). It reads only the voxels of
// Footprint(g, atlasFromPatient, side).
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
					out[i] = toByte(interpolate(g, data, px, py, pz))
					i++
				}
			}
		}
	})
	return out, nil
}

// toByte rounds an interpolated intensity to the nearest byte, clamped
// to [0, 255]: uint8(math.Min(255, math.Max(0, math.Round(v)))) for
// every v, NaN and the infinities included, without the calls.
func toByte(v float64) uint8 {
	r := math.Round(v)
	if r > 255 {
		r = 255
	} else if r < 0 {
		r = 0
	}
	return uint8(r)
}

// Mask is a set of a grid's voxels, one bit per voxel in scanline order.
type Mask []uint64

// Has reports whether the voxel at scanline index i is in the set.
func (m Mask) Has(i int) bool { return m[i>>6]&(1<<(i&63)) != 0 }

func (m Mask) add(i int) { m[i>>6] |= 1 << (i & 63) }

// Footprint returns every voxel of g that Resample may read when it
// warps a study on g through atlasFromPatient to a side^3 volume: the
// eight corners of the cell under each atlas voxel, clipped to the
// grid. It maps atlas voxels to patient space with the same inverse and
// the same arithmetic as Resample, so the cells agree to the bit. A
// loader that samples only these voxels, leaving the rest 0, resamples
// to the same bytes as one that samples the whole grid.
func Footprint(g Grid, atlasFromPatient Affine, side int) (Mask, error) {
	if side < 1 {
		return nil, fmt.Errorf("warp: invalid output side %d", side)
	}
	inv, err := atlasFromPatient.Inverse()
	if err != nil {
		return nil, fmt.Errorf("warp: cannot invert warp: %v", err)
	}
	m := make(Mask, (g.NumVoxels()+63)/64)
	row, slice := g.NX, g.NX*g.NY
	corners := [8]int{0, 1, row, row + 1, slice, slice + 1, slice + row, slice + row + 1}
	for z := 0; z < side; z++ {
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				px, py, pz := inv.Apply(float64(x), float64(y), float64(z))
				ix, iy, iz := int(math.Floor(px)), int(math.Floor(py)), int(math.Floor(pz))
				if g.interior(ix, iy, iz) {
					i := iz*slice + iy*row + ix
					for _, c := range corners {
						m.add(i + c)
					}
					continue
				}
				for cz := max(iz, 0); cz <= iz+1 && cz < g.NZ; cz++ {
					for cy := max(iy, 0); cy <= iy+1 && cy < g.NY; cy++ {
						for cx := max(ix, 0); cx <= ix+1 && cx < g.NX; cx++ {
							m.add(cz*slice + cy*row + cx)
						}
					}
				}
			}
		}
	}
	return m, nil
}
