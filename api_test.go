package qbism_test

// Black-box tests of the public API: everything a downstream user would
// touch must be reachable and coherent through the root package alone.

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"qbism"
	"qbism/internal/experiments"
)

var (
	apiOnce sync.Once
	apiSys  *qbism.System
	apiErr  error
)

func apiSystem(t *testing.T) *qbism.System {
	t.Helper()
	apiOnce.Do(func() {
		apiSys, apiErr = qbism.NewSystem(qbism.Config{
			Bits: 5, NumPET: 2, NumMRI: 1, Seed: 11,
			SmallStudies: true, WithMeshes: true,
		})
		if apiErr == nil {
			// Table 4 reads its z-naive and octant rows too.
			apiErr = experiments.StoreTable4Rows(apiSys.Server)
		}
	})
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	return apiSys
}

func TestPublicCurveAndRegion(t *testing.T) {
	c, err := qbism.NewCurve(qbism.CurveHilbert, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	sphere, err := qbism.FromSphere(c, 8, 8, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	box, err := qbism.FromBox(c, qbism.Box{Min: qbism.Pt(4, 4, 4), Max: qbism.Pt(11, 11, 11)})
	if err != nil {
		t.Fatal(err)
	}
	inter, err := qbism.Intersect(sphere, box)
	if err != nil {
		t.Fatal(err)
	}
	if inter.Empty() {
		t.Fatal("sphere/box intersection empty")
	}
	uni, err := qbism.Union(sphere, box)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := qbism.Contains(uni, inter)
	if err != nil || !ok {
		t.Errorf("union must contain intersection: %v %v", ok, err)
	}
	comp, err := qbism.Complement(uni)
	if err != nil {
		t.Fatal(err)
	}
	if over, _ := qbism.Overlaps(comp, uni); over {
		t.Error("complement overlaps original")
	}
}

func TestPublicEncodings(t *testing.T) {
	c, _ := qbism.NewCurve(qbism.CurveHilbert, 3, 5)
	r, err := qbism.FromSphere(c, 16, 16, 16, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []qbism.EncodingMethod{
		qbism.EncodingNaive, qbism.EncodingElias, qbism.EncodingEliasDelta,
		qbism.EncodingGolomb, qbism.EncodingVarint,
		qbism.EncodingOblongOctant, qbism.EncodingOctant,
	} {
		data, err := qbism.EncodeRegion(m, r)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		size, err := qbism.EncodedRegionSize(m, r)
		if err != nil || size != len(data) {
			t.Fatalf("%v: size %d vs %d (%v)", m, size, len(data), err)
		}
		back, err := qbism.DecodeRegion(data)
		if err != nil || !back.Equal(r) {
			t.Fatalf("%v: round trip failed (%v)", m, err)
		}
	}
	if qbism.EntropyBound(r) <= 0 {
		t.Error("entropy bound not positive")
	}
}

func TestPublicVolumeAndExtract(t *testing.T) {
	c, _ := qbism.NewCurve(qbism.CurveHilbert, 3, 4)
	vol := qbism.VolumeFromFunc(c, func(p qbism.Point) uint8 { return uint8(p.X * 16) })
	r, err := qbism.FromBox(c, qbism.Box{Min: qbism.Pt(2, 0, 0), Max: qbism.Pt(2, 15, 15)})
	if err != nil {
		t.Fatal(err)
	}
	d, err := qbism.ExtractData(vol, r)
	if err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Min != 32 || st.Max != 32 {
		t.Errorf("extract stats = %+v", st)
	}
	mean, err := qbism.VoxelwiseMean(r, []*qbism.Volume{vol, vol})
	if err != nil || mean.Stats().Mean != 32 {
		t.Errorf("voxelwise mean: %v %v", mean.Stats().Mean, err)
	}
}

func TestPublicWarp(t *testing.T) {
	a := qbism.Translate(1, 2, 3).Compose(qbism.Scale(2, 2, 2))
	marks := make([]qbism.Landmark, 0, 6)
	for _, p := range [][3]float64{{0, 0, 0}, {5, 0, 0}, {0, 5, 0}, {0, 0, 5}, {3, 4, 5}, {7, 1, 2}} {
		tx, ty, tz := a.Apply(p[0], p[1], p[2])
		marks = append(marks, qbism.Landmark{SX: p[0], SY: p[1], SZ: p[2], TX: tx, TY: ty, TZ: tz})
	}
	fit, err := qbism.FitLandmarks(marks)
	if err != nil {
		t.Fatal(err)
	}
	x, y, z := fit.Apply(1, 1, 1)
	wx, wy, wz := a.Apply(1, 1, 1)
	for _, d := range []float64{x - wx, y - wy, z - wz} {
		if d > 1e-9 || d < -1e-9 {
			t.Fatalf("fit.Apply = %v,%v,%v want %v,%v,%v", x, y, z, wx, wy, wz)
		}
	}
}

func TestPublicSystemQuery(t *testing.T) {
	s := apiSystem(t)
	res, err := s.RunQuery(qbism.QuerySpec{
		StudyID: 1, Atlas: "Talairach", Structure: "cerebellum",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Field.NumVoxels() == 0 {
		t.Error("empty result")
	}
	var buf bytes.Buffer
	qbism.WriteTable3(&buf, []qbism.Table3Row{{Label: res.Spec.Label(), Result: res}})
	if !strings.Contains(buf.String(), "cerebellum") {
		t.Error("Table 3 formatting missing query label")
	}
}

func TestPublicExperiments(t *testing.T) {
	s := apiSystem(t)
	var buf bytes.Buffer

	rep, err := experiments.RunRatios(s.Server)
	if err != nil {
		t.Fatal(err)
	}
	experiments.WriteRunRatios(&buf, rep)

	rows3, err := s.Table3()
	if err != nil {
		t.Fatal(err)
	}
	qbism.WriteTable3(&buf, rows3)

	rows4, err := experiments.Table4(s.Server, 128, 159)
	if err != nil {
		t.Fatal(err)
	}
	experiments.WriteTable4(&buf, rows4, 128, 159)

	sizes, err := experiments.Sizes(s.Server)
	if err != nil {
		t.Fatal(err)
	}
	experiments.WriteSizes(&buf, sizes)

	deltas, err := experiments.DeltaLaw(s.Server)
	if err != nil {
		t.Fatal(err)
	}
	experiments.WriteDeltaLaw(&buf, deltas)

	mg, err := experiments.MingapSweep(s.Server, []uint64{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	experiments.WriteMingap(&buf, mg)

	for _, want := range []string{"TABLE 3", "TABLE 4", "E1:", "E2:", "E3", "Mingap"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report output missing %q", want)
		}
	}
}

func TestPublicDXPipeline(t *testing.T) {
	s := apiSystem(t)
	res, err := s.RunQuery(qbism.QuerySpec{StudyID: 1, Atlas: "Talairach", Structure: "ntal"})
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.Data()
	if err != nil {
		t.Fatal(err)
	}
	field, _, err := qbism.ImportVolume(data)
	if err != nil {
		t.Fatal(err)
	}
	img, err := field.Render(qbism.RenderOpts{Axis: 2, Mode: qbism.RenderAverage})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := img.WritePGM(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("P5\n")) {
		t.Error("not a PGM")
	}
	// Surface rendering through the public API.
	st, err := s.Atlas.ByName("ntal")
	if err != nil {
		t.Fatal(err)
	}
	surf, err := qbism.RenderMesh(st.Mesh, 2, 64, 2, data)
	if err != nil {
		t.Fatal(err)
	}
	lit := 0
	for _, p := range surf.Pix {
		if p > 0 {
			lit++
		}
	}
	if lit == 0 {
		t.Error("surface render black")
	}
}

func TestPublicDBAndLFM(t *testing.T) {
	m, err := qbism.NewLongFieldManager(1<<18, 4096)
	if err != nil {
		t.Fatal(err)
	}
	db := qbism.NewDB(m)
	if _, err := db.Exec(`create table t (a int, blob long)`); err != nil {
		t.Fatal(err)
	}
	h, err := m.Allocate([]byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRow("t", []qbism.SQLValue{}); err == nil {
		t.Error("arity error not caught")
	}
	if err := db.RegisterUDF(&qbism.UDF{
		Name: "fieldLen", MinArgs: 1, MaxArgs: 1,
		Fn: func(call *qbism.UDFCall, args []qbism.SQLValue) (qbism.SQLValue, error) {
			n, err := call.IO().M.Size(args[0].L)
			if err != nil {
				return qbism.SQLValue{}, err
			}
			out := qbism.SQLValue{}
			out.T = out.T + 1 // TInt is the first non-null type
			out.I = int64(n)
			return out, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`insert into t (a) values (1)`)
	// Attach the long field (handles coerce from non-negative ints).
	db.MustExec(fmt.Sprintf(`update t set blob = %d where a = 1`, uint64(h)))
	res := db.MustExec(`select fieldLen(blob) from t where a = 1`)
	if len(res.Rows) != 1 || res.Rows[0][0].I != int64(len("payload")) {
		t.Errorf("fieldLen rows = %v", res.Rows)
	}
}

func TestPublicSynth(t *testing.T) {
	raw, err := qbism.GenerateStudy(qbism.StudyParams{
		StudyID: 1, PatientID: 1, Modality: qbism.PET, Seed: 3, AtlasSide: 32,
		Grid: qbism.AcquisitionGrid{NX: 32, NY: 32, NZ: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	warped, affine, err := raw.WarpToAtlas(32)
	if err != nil {
		t.Fatal(err)
	}
	if len(warped) != 32*32*32 {
		t.Fatalf("warped length = %d", len(warped))
	}
	inv, err := affine.Inverse()
	if err != nil {
		t.Fatal(err)
	}
	x, _, _ := inv.Apply(affine.Apply(1, 2, 3))
	if x-1 > 1e-6 || 1-x > 1e-6 {
		t.Error("affine inverse broken through public API")
	}
	c, _ := qbism.NewCurve(qbism.CurveHilbert, 3, 5)
	vol, err := qbism.VolumeFromScanline(c, warped)
	if err != nil {
		t.Fatal(err)
	}
	if vol.NumVoxels() != 32768 {
		t.Error("volume size wrong")
	}
}

func TestPublicAtlasBuild(t *testing.T) {
	c, _ := qbism.NewCurve(qbism.CurveHilbert, 3, 4)
	a, err := qbism.BuildAtlas(c, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Structures) != 11 {
		t.Errorf("structures = %d", len(a.Structures))
	}
	r := a.Brain().Region
	mesh := qbism.MeshFromRegion(r)
	if len(mesh.Triangles) == 0 {
		t.Error("empty mesh")
	}
}

func TestPublicStats(t *testing.T) {
	fit, err := qbism.FitLinear([]float64{1, 2, 3}, []float64{2, 4, 6})
	if err != nil || fit.Slope != 2 {
		t.Errorf("FitLinear: %v %v", fit, err)
	}
	org, err := qbism.FitLinearThroughOrigin([]float64{2, 4}, []float64{3, 6})
	if err != nil || org.Slope != 1.5 {
		t.Errorf("FitLinearThroughOrigin: %v %v", org, err)
	}
	pl, err := qbism.FitPowerLaw(map[uint64]int{1: 100, 2: 35, 4: 12, 8: 4})
	if err != nil || pl.Alpha < 1.0 {
		t.Errorf("FitPowerLaw: %v %v", pl, err)
	}
}
