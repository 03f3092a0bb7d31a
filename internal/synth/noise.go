// Package synth generates the synthetic PET and MRI studies standing in
// for the UCLA clinical data (5 PET studies of 128x128x51 slices, 3 MRI
// studies of 512x512x44 slices in the paper). Studies are produced by
// sampling a deterministic analytic "phantom" head in atlas space
// through a per-patient affine misalignment, so the full load pipeline —
// landmark registration, warping, resampling, banding — runs exactly as
// it would on acquired imagery.
package synth

import "math"

// valueNoise is deterministic seeded 3D value noise: lattice hashes
// interpolated trilinearly (octave), summed over two octaves
// (fractalNoise). Output is in [0,1).
type valueNoise struct {
	seed uint64
}

// hash maps a lattice point to a pseudo-random value in [0,1): the seed
// mixed with each coordinate in turn, then finished.
func (n valueNoise) hash(x, y, z int64) float64 {
	return finish(mix(mix(mix(n.seed, x), y), z))
}

// mix folds one lattice coordinate into a hash state.
func mix(h uint64, v int64) uint64 {
	h ^= uint64(v) + 0x9e3779b97f4a7c15
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	return h
}

// finish turns a hash state into a value in [0,1).
func finish(h uint64) float64 {
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11) / float64(1<<53)
}

// octave is one octave of value noise at a fixed lattice period. It
// remembers the eight corner hashes of the lattice cell it last
// sampled, so a run of samples inside one cell — which is what a scan
// through the phantom produces — hashes once. The cache holds only
// values hash would return again, so the result of at never depends on
// the order of the samples; an octave is not safe for concurrent use.
type octave struct {
	noise  valueNoise
	period float64

	cached     bool
	ix, iy, iz int64
	corner     [8]float64 // hash(ix+dx, iy+dy, iz+dz) at index dz<<2 | dy<<1 | dx
}

// at evaluates the octave at the continuous point (x, y, z).
func (o *octave) at(x, y, z float64) float64 {
	fx, fy, fz := x/o.period, y/o.period, z/o.period
	x0, y0, z0 := math.Floor(fx), math.Floor(fy), math.Floor(fz)
	tx, ty, tz := smooth(fx-x0), smooth(fy-y0), smooth(fz-z0)
	ix, iy, iz := int64(x0), int64(y0), int64(z0)
	if !o.cached || ix != o.ix || iy != o.iy || iz != o.iz {
		// hash of each corner, the mixes of x and of x,y shared.
		for dx := int64(0); dx < 2; dx++ {
			hx := mix(o.noise.seed, ix+dx)
			for dy := int64(0); dy < 2; dy++ {
				hxy := mix(hx, iy+dy)
				o.corner[dy<<1|dx] = finish(mix(hxy, iz))
				o.corner[4|dy<<1|dx] = finish(mix(hxy, iz+1))
			}
		}
		o.cached, o.ix, o.iy, o.iz = true, ix, iy, iz
	}
	// Trilinear weights, summed x fastest then y then z with each term
	// associated (wx*wy)*wz*hash: the order fixes the rounding, and the
	// stored studies depend on every last bit of it.
	ux, uy, uz := 1-tx, 1-ty, 1-tz
	w00, w10, w01, w11 := ux*uy, tx*uy, ux*ty, tx*ty
	c := &o.corner
	var acc float64
	acc += w00 * uz * c[0]
	acc += w10 * uz * c[1]
	acc += w01 * uz * c[2]
	acc += w11 * uz * c[3]
	acc += w00 * tz * c[4]
	acc += w10 * tz * c[5]
	acc += w01 * tz * c[6]
	acc += w11 * tz * c[7]
	return acc
}

// smooth is the smoothstep fade curve.
func smooth(t float64) float64 { return t * t * (3 - 2*t) }

// fractalNoise sums two octaves of value noise, the second at half the
// period under a derived seed, normalized back to [0,1).
type fractalNoise struct {
	a, b octave
}

func newFractalNoise(n valueNoise, period float64) fractalNoise {
	return fractalNoise{
		a: octave{noise: n, period: period},
		b: octave{noise: valueNoise{seed: n.seed ^ 0xabcdef}, period: period / 2},
	}
}

func (f *fractalNoise) at(x, y, z float64) float64 {
	return (2*f.a.at(x, y, z) + f.b.at(x, y, z)) / 3
}
