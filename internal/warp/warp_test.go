package warp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestIdentity(t *testing.T) {
	id := Identity()
	x, y, z := id.Apply(3, 4, 5)
	if x != 3 || y != 4 || z != 5 {
		t.Errorf("identity moved point: %v %v %v", x, y, z)
	}
}

func TestTranslateScaleRotate(t *testing.T) {
	tr, sc, rot := Translate(1, 2, 3), Scale(2, 3, 4), RotateZ(math.Pi/2)
	x, y, z := tr.Apply(0, 0, 0)
	if x != 1 || y != 2 || z != 3 {
		t.Errorf("translate: %v %v %v", x, y, z)
	}
	x, y, z = sc.Apply(1, 1, 1)
	if x != 2 || y != 3 || z != 4 {
		t.Errorf("scale: %v %v %v", x, y, z)
	}
	x, y, z = rot.Apply(1, 0, 0)
	if !almostEq(x, 0, 1e-12) || !almostEq(y, 1, 1e-12) || z != 0 {
		t.Errorf("rotate: %v %v %v", x, y, z)
	}
}

func TestComposeOrder(t *testing.T) {
	// Scale then translate vs translate then scale differ.
	st := Scale(2, 2, 2).Compose(Translate(1, 0, 0))
	x, _, _ := st.Apply(1, 0, 0)
	if x != 3 { // 1*2 + 1
		t.Errorf("scale-then-translate x = %v, want 3", x)
	}
	ts := Translate(1, 0, 0).Compose(Scale(2, 2, 2))
	x, _, _ = ts.Apply(1, 0, 0)
	if x != 4 { // (1+1)*2
		t.Errorf("translate-then-scale x = %v, want 4", x)
	}
}

func TestInverseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomAffine(rng)
		inv, err := a.Inverse()
		if err != nil {
			return true // singular random matrix: skip
		}
		for i := 0; i < 5; i++ {
			x, y, z := rng.Float64()*100, rng.Float64()*100, rng.Float64()*100
			tx, ty, tz := a.Apply(x, y, z)
			bx, by, bz := inv.Apply(tx, ty, tz)
			if !almostEq(bx, x, 1e-6) || !almostEq(by, y, 1e-6) || !almostEq(bz, z, 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func randomAffine(rng *rand.Rand) Affine {
	var a Affine
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			a.M[i][j] = rng.Float64()*4 - 2
		}
		a.M[i][i] += 2 // keep it comfortably nonsingular most of the time
	}
	return a
}

func TestInverseSingular(t *testing.T) {
	if _, err := Scale(0, 1, 1).Inverse(); err == nil {
		t.Error("singular inverse accepted")
	}
}

func TestFitLandmarksRecoversAffine(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		truth := randomAffine(rng)
		marks := make([]Landmark, 10)
		for i := range marks {
			sx, sy, sz := rng.Float64()*128, rng.Float64()*128, rng.Float64()*128
			tx, ty, tz := truth.Apply(sx, sy, sz)
			marks[i] = Landmark{SX: sx, SY: sy, SZ: sz, TX: tx, TY: ty, TZ: tz}
		}
		fit, err := FitLandmarks(marks)
		if err != nil {
			return false
		}
		return RMSError(fit, marks) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFitLandmarksErrors(t *testing.T) {
	if _, err := FitLandmarks(nil); err == nil {
		t.Error("no landmarks accepted")
	}
	// Coplanar landmarks (all z=0) make the system singular.
	marks := []Landmark{
		{0, 0, 0, 0, 0, 0}, {1, 0, 0, 1, 0, 0},
		{0, 1, 0, 0, 1, 0}, {1, 1, 0, 1, 1, 0},
	}
	if _, err := FitLandmarks(marks); err == nil {
		t.Error("coplanar landmarks accepted")
	}
}

func TestRMSErrorEmpty(t *testing.T) {
	if RMSError(Identity(), nil) != 0 {
		t.Error("empty RMS != 0")
	}
}

func TestTrilinearAtGridPoints(t *testing.T) {
	g := Grid{NX: 4, NY: 4, NZ: 4}
	data := make([]byte, g.NumVoxels())
	for i := range data {
		data[i] = uint8(i)
	}
	for z := 0; z < 4; z++ {
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				want := float64(data[(z*4+y)*4+x])
				if got := Trilinear(g, data, float64(x), float64(y), float64(z)); got != want {
					t.Fatalf("Trilinear(%d,%d,%d) = %v, want %v", x, y, z, got, want)
				}
			}
		}
	}
	// Midpoint between two voxels is their average.
	got := Trilinear(g, data, 0.5, 0, 0)
	want := (float64(data[0]) + float64(data[1])) / 2
	if !almostEq(got, want, 1e-12) {
		t.Errorf("midpoint = %v, want %v", got, want)
	}
	// Outside the grid reads as 0 influence.
	if got := Trilinear(g, data, -5, -5, -5); got != 0 {
		t.Errorf("outside = %v, want 0", got)
	}
}

func TestResampleIdentity(t *testing.T) {
	g := Grid{NX: 8, NY: 8, NZ: 8}
	data := make([]byte, g.NumVoxels())
	rng := rand.New(rand.NewSource(5))
	rng.Read(data)
	out, err := Resample(g, data, Identity(), 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if out[i] != data[i] {
			t.Fatalf("identity resample changed voxel %d: %d -> %d", i, data[i], out[i])
		}
	}
}

func TestResampleScalesAnisotropicStudy(t *testing.T) {
	// A 16x16x4 "study" (like a thick-sliced PET) warped into an 16^3
	// cube by scaling z by 4: constant data must stay constant.
	g := Grid{NX: 16, NY: 16, NZ: 4}
	data := make([]byte, g.NumVoxels())
	for i := range data {
		data[i] = 77
	}
	warp := Scale(1, 1, 4)
	out, err := Resample(g, data, warp, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Interior voxels (away from the zero-padded boundary) stay 77.
	mid := out[(8*16+8)*16+8]
	if mid != 77 {
		t.Errorf("interior voxel = %d, want 77", mid)
	}
}

func TestResampleErrors(t *testing.T) {
	g := Grid{NX: 2, NY: 2, NZ: 2}
	if _, err := Resample(g, make([]byte, 7), Identity(), 4); err == nil {
		t.Error("mismatched data length accepted")
	}
	if _, err := Resample(g, make([]byte, 8), Identity(), 0); err == nil {
		t.Error("side 0 accepted")
	}
	if _, err := Resample(g, make([]byte, 8), Scale(0, 1, 1), 4); err == nil {
		t.Error("singular warp accepted")
	}
}

func TestResampleClampsTo255(t *testing.T) {
	g := Grid{NX: 2, NY: 2, NZ: 2}
	data := []byte{255, 255, 255, 255, 255, 255, 255, 255}
	out, err := Resample(g, data, Identity(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out {
		if v != 255 {
			t.Fatalf("clamped value = %d", v)
		}
	}
}
