// Package warp implements the spatial warping machinery of Section 2.2:
// affine transformations that register a raw patient study ("patient
// space") to a reference atlas ("atlas space"), and the resampling that
// produces warped VOLUMEs at database load time.
//
// The paper's statistical warping algorithms [24, 30, 31] are outside
// its scope and ours; like the paper we only need the derived affine
// matrices, which we compute from landmark correspondences by least
// squares.
package warp

import (
	"fmt"
	"math"
)

// Affine is a 3D affine transformation in homogeneous coordinates,
// row-major: out = M * (x, y, z, 1)^T using the top three rows.
type Affine struct {
	M [3][4]float64
}

// Identity returns the identity transformation.
func Identity() Affine {
	return Affine{M: [3][4]float64{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 1, 0},
	}}
}

// Translate returns a translation by (tx, ty, tz).
func Translate(tx, ty, tz float64) Affine {
	a := Identity()
	a.M[0][3], a.M[1][3], a.M[2][3] = tx, ty, tz
	return a
}

// Scale returns an axis-aligned scaling.
func Scale(sx, sy, sz float64) Affine {
	a := Identity()
	a.M[0][0], a.M[1][1], a.M[2][2] = sx, sy, sz
	return a
}

// RotateZ returns a rotation by theta radians about the Z axis.
func RotateZ(theta float64) Affine {
	c, s := math.Cos(theta), math.Sin(theta)
	return Affine{M: [3][4]float64{
		{c, -s, 0, 0},
		{s, c, 0, 0},
		{0, 0, 1, 0},
	}}
}

// Apply transforms the point (x, y, z).
func (a *Affine) Apply(x, y, z float64) (float64, float64, float64) {
	return a.M[0][0]*x + a.M[0][1]*y + a.M[0][2]*z + a.M[0][3],
		a.M[1][0]*x + a.M[1][1]*y + a.M[1][2]*z + a.M[1][3],
		a.M[2][0]*x + a.M[2][1]*y + a.M[2][2]*z + a.M[2][3]
}

// Compose returns the transformation "a then b": Compose(b).Apply(p) ==
// b.Apply(a.Apply(p)).
func (a Affine) Compose(b Affine) Affine {
	var out Affine
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			var s float64
			for k := 0; k < 3; k++ {
				s += b.M[i][k] * a.M[k][j]
			}
			if j == 3 {
				s += b.M[i][3]
			}
			out.M[i][j] = s
		}
	}
	return out
}

// Inverse returns the inverse transformation, or an error if the linear
// part is singular.
func (a Affine) Inverse() (Affine, error) {
	// Invert the 3x3 linear part by cofactors.
	m := a.M
	det := m[0][0]*(m[1][1]*m[2][2]-m[1][2]*m[2][1]) -
		m[0][1]*(m[1][0]*m[2][2]-m[1][2]*m[2][0]) +
		m[0][2]*(m[1][0]*m[2][1]-m[1][1]*m[2][0])
	if math.Abs(det) < 1e-12 {
		return Affine{}, fmt.Errorf("warp: singular transformation (det=%g)", det)
	}
	inv := [3][3]float64{
		{(m[1][1]*m[2][2] - m[1][2]*m[2][1]) / det,
			(m[0][2]*m[2][1] - m[0][1]*m[2][2]) / det,
			(m[0][1]*m[1][2] - m[0][2]*m[1][1]) / det},
		{(m[1][2]*m[2][0] - m[1][0]*m[2][2]) / det,
			(m[0][0]*m[2][2] - m[0][2]*m[2][0]) / det,
			(m[0][2]*m[1][0] - m[0][0]*m[1][2]) / det},
		{(m[1][0]*m[2][1] - m[1][1]*m[2][0]) / det,
			(m[0][1]*m[2][0] - m[0][0]*m[2][1]) / det,
			(m[0][0]*m[1][1] - m[0][1]*m[1][0]) / det},
	}
	var out Affine
	for i := 0; i < 3; i++ {
		copy(out.M[i][:3], inv[i][:])
		out.M[i][3] = -(inv[i][0]*m[0][3] + inv[i][1]*m[1][3] + inv[i][2]*m[2][3])
	}
	return out, nil
}

// Landmark is a correspondence between a point in the source (patient)
// space and the target (atlas) space.
type Landmark struct {
	SX, SY, SZ float64 // source (patient space)
	TX, TY, TZ float64 // target (atlas space)
}

// FitLandmarks computes the least-squares affine transformation mapping
// the source points onto the target points — how warping matrices are
// derived and stored at load time. At least 4 non-coplanar landmarks are
// required.
func FitLandmarks(marks []Landmark) (Affine, error) {
	if len(marks) < 4 {
		return Affine{}, fmt.Errorf("warp: need >= 4 landmarks, got %d", len(marks))
	}
	// Solve three independent least-squares systems A w = t, where each
	// row of A is (sx, sy, sz, 1) via the normal equations (4x4).
	var ata [4][4]float64
	var atb [3][4]float64
	for _, lm := range marks {
		row := [4]float64{lm.SX, lm.SY, lm.SZ, 1}
		tgt := [3]float64{lm.TX, lm.TY, lm.TZ}
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				ata[i][j] += row[i] * row[j]
			}
			for d := 0; d < 3; d++ {
				atb[d][i] += tgt[d] * row[i]
			}
		}
	}
	var out Affine
	for d := 0; d < 3; d++ {
		sol, err := solve4(ata, atb[d])
		if err != nil {
			return Affine{}, fmt.Errorf("warp: %v (landmarks coplanar?)", err)
		}
		out.M[d] = sol
	}
	return out, nil
}

// solve4 solves the 4x4 system m x = b by Gaussian elimination with
// partial pivoting.
func solve4(m [4][4]float64, b [4]float64) ([4]float64, error) {
	var aug [4][5]float64
	for i := 0; i < 4; i++ {
		copy(aug[i][:4], m[i][:])
		aug[i][4] = b[i]
	}
	for col := 0; col < 4; col++ {
		pivot := col
		for r := col + 1; r < 4; r++ {
			if math.Abs(aug[r][col]) > math.Abs(aug[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(aug[pivot][col]) < 1e-12 {
			return [4]float64{}, fmt.Errorf("singular system")
		}
		aug[col], aug[pivot] = aug[pivot], aug[col]
		for r := 0; r < 4; r++ {
			if r == col {
				continue
			}
			f := aug[r][col] / aug[col][col]
			for c := col; c < 5; c++ {
				aug[r][c] -= f * aug[col][c]
			}
		}
	}
	var x [4]float64
	for i := 0; i < 4; i++ {
		x[i] = aug[i][4] / aug[i][i]
	}
	return x, nil
}

// RMSError returns the root-mean-square distance between a.Apply(source)
// and target over the landmarks — the registration quality metric.
func RMSError(a Affine, marks []Landmark) float64 {
	if len(marks) == 0 {
		return 0
	}
	var s float64
	for _, lm := range marks {
		x, y, z := a.Apply(lm.SX, lm.SY, lm.SZ)
		dx, dy, dz := x-lm.TX, y-lm.TY, z-lm.TZ
		s += dx*dx + dy*dy + dz*dz
	}
	return math.Sqrt(s / float64(len(marks)))
}
