package synth

import (
	"math"
	"math/rand"
	"testing"
)

// sample and fractal are the value noise as first written — eight
// hashes per octave per sample, no memory — kept as the reference the
// cell-caching octave must equal bit for bit.

// sample evaluates one octave at the continuous point (x, y, z) with the
// given lattice period.
func (n valueNoise) sample(x, y, z, period float64) float64 {
	fx, fy, fz := x/period, y/period, z/period
	x0, y0, z0 := math.Floor(fx), math.Floor(fy), math.Floor(fz)
	tx, ty, tz := smooth(fx-x0), smooth(fy-y0), smooth(fz-z0)
	ix, iy, iz := int64(x0), int64(y0), int64(z0)
	var acc float64
	for dz := int64(0); dz < 2; dz++ {
		wz := tz
		if dz == 0 {
			wz = 1 - tz
		}
		for dy := int64(0); dy < 2; dy++ {
			wy := ty
			if dy == 0 {
				wy = 1 - ty
			}
			for dx := int64(0); dx < 2; dx++ {
				wx := tx
				if dx == 0 {
					wx = 1 - tx
				}
				acc += wx * wy * wz * n.hash(ix+dx, iy+dy, iz+dz)
			}
		}
	}
	return acc
}

// fractal sums two octaves of value noise, normalized back to [0,1).
func (n valueNoise) fractal(x, y, z, period float64) float64 {
	a := n.sample(x, y, z, period)
	b := valueNoise{seed: n.seed ^ 0xabcdef}.sample(x, y, z, period/2)
	return (2*a + b) / 3
}

// TestFractalNoiseEqualsReference drives one cached fractalNoise through
// a scanline sweep, the same sweep reversed, and the same points
// shuffled: every value equals the memoryless reference exactly, so the
// cache can never make a study depend on how its grid was traversed or
// cut into slabs.
func TestFractalNoiseEqualsReference(t *testing.T) {
	for _, period := range []float64{3, 5, 22, 60} {
		n := valueNoise{seed: 1993}
		var pts [][3]float64
		// A rotated, anisotropic sweep like Generate's: quarter-voxel
		// steps in x that drift across cells in y and z, negative
		// coordinates included.
		for z := 0; z < 6; z++ {
			for y := 0; y < 12; y++ {
				for x := 0; x < 96; x++ {
					fx, fy, fz := float64(x)*0.25, float64(y)*0.25, float64(z)*2.9
					pts = append(pts, [3]float64{
						-7 + 0.998*fx - 0.06*fy, -3 + 0.06*fx + 0.998*fy, -2 + fz + 0.01*fx,
					})
				}
			}
		}
		check := func(order string) {
			f := newFractalNoise(n, period)
			for i, p := range pts {
				got, want := f.at(p[0], p[1], p[2]), n.fractal(p[0], p[1], p[2], period)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("period %g, %s order, sample %d at %v: cached %v, reference %v",
						period, order, i, p, got, want)
				}
			}
		}
		check("scanline")
		for i, j := 0, len(pts)-1; i < j; i, j = i+1, j-1 {
			pts[i], pts[j] = pts[j], pts[i]
		}
		check("reversed")
		rand.New(rand.NewSource(int64(period))).Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		check("random")
	}
}
