package region

import (
	"math"
	"math/rand"
	"testing"

	"qbism/internal/sfc"
)

func TestFromBox(t *testing.T) {
	b := Box{Min: sfc.Pt(2, 3, 4), Max: sfc.Pt(5, 6, 7)}
	r, err := FromBox(h3, b)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumVoxels() != 4*4*4 {
		t.Errorf("voxels = %d, want 64", r.NumVoxels())
	}
	// Membership agrees with box geometry everywhere.
	for id := uint64(0); id < h3.Length(); id += 7 {
		p := h3.Point(id)
		if r.ContainsID(id) != b.Contains(p) {
			t.Fatalf("membership mismatch at %v", p)
		}
	}
}

func TestFromBoxErrors(t *testing.T) {
	if _, err := FromBox(h3, Box{Min: sfc.Pt(5, 0, 0), Max: sfc.Pt(4, 0, 0)}); err == nil {
		t.Error("inverted box accepted")
	}
	if _, err := FromBox(h3, Box{Min: sfc.Pt(0, 0, 0), Max: sfc.Pt(32, 0, 0)}); err == nil {
		t.Error("out-of-grid box accepted")
	}
	if _, err := FromBox(h2, Box{Min: sfc.Pt(0, 0, 0), Max: sfc.Pt(1, 1, 1)}); err == nil {
		t.Error("2D box with Z extent accepted")
	}
	// Valid 2D box.
	r, err := FromBox(h2, Box{Min: sfc.Pt(0, 0, 0), Max: sfc.Pt(1, 1, 0)})
	if err != nil || r.NumVoxels() != 4 {
		t.Errorf("2D box: %v, %v", r, err)
	}
}

func TestFromSphere(t *testing.T) {
	r, err := FromSphere(h3, 16, 16, 16, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Volume should approximate (4/3)πr³ ≈ 905 within 15%.
	v := float64(r.NumVoxels())
	if v < 770 || v < 1 || v > 1040 {
		t.Errorf("sphere voxels = %v, want ≈ 905", v)
	}
	if !r.ContainsPoint(sfc.Pt(16, 16, 16)) {
		t.Error("center not in sphere")
	}
	if r.ContainsPoint(sfc.Pt(16, 16, 23)) {
		t.Error("point at distance 7 inside radius-6 sphere")
	}
}

func TestFromEllipsoidErrors(t *testing.T) {
	if _, err := FromEllipsoid(h3, Ellipsoid{CX: 5, CY: 5, CZ: 5, RX: 0, RY: 1, RZ: 1}); err == nil {
		t.Error("zero semi-axis accepted")
	}
}

func TestFromEllipsoidNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for i := 0; i < 6; i++ {
			f := [6]float64{5, 5, 5, 2, 2, 2}
			f[i] = v
			e := Ellipsoid{CX: f[0], CY: f[1], CZ: f[2], RX: f[3], RY: f[4], RZ: f[5]}
			if r, err := FromEllipsoid(h3, e); err == nil {
				t.Errorf("%+v accepted: %v", e, r)
			}
		}
	}
}

func TestFromEllipsoidClamped(t *testing.T) {
	// Ellipsoid sticking out of the grid is clamped, not an error.
	r, err := FromEllipsoid(h3, Ellipsoid{CX: 0, CY: 0, CZ: 0, RX: 10, RY: 10, RZ: 10})
	if err != nil {
		t.Fatal(err)
	}
	if r.Empty() || !r.ContainsPoint(sfc.Pt(0, 0, 0)) {
		t.Error("clamped ellipsoid missing origin octant")
	}
}

// TestHilbertFewerRunsThanZ reproduces the paper's qualitative claim on
// a geometric shape: the Hilbert encoding of a sphere needs fewer runs
// than the Z encoding.
func TestHilbertFewerRunsThanZ(t *testing.T) {
	hr, err := FromSphere(h3, 15, 15, 15, 9)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := hr.Recode(z3)
	if err != nil {
		t.Fatal(err)
	}
	if hr.NumRuns() >= zr.NumRuns() {
		t.Errorf("h-runs = %d not fewer than z-runs = %d", hr.NumRuns(), zr.NumRuns())
	}
	t.Logf("sphere r=9: h-runs=%d z-runs=%d ratio=%.2f",
		hr.NumRuns(), zr.NumRuns(), float64(zr.NumRuns())/float64(hr.NumRuns()))
}

// oracleBox and oracleEllipsoid are the constructions FromBox and
// FromEllipsoid had before they walked the curve's octree: one c.ID per
// voxel of the box (or of the ellipsoid's clamped bounding box), then
// FromIDs's copy and sort.
func oracleBox(c sfc.Curve, b Box) *Region {
	var ids []uint64
	for z := b.Min.Z; z <= b.Max.Z; z++ {
		for y := b.Min.Y; y <= b.Max.Y; y++ {
			for x := b.Min.X; x <= b.Max.X; x++ {
				ids = append(ids, c.ID(sfc.Pt(x, y, z)))
			}
		}
	}
	r, err := FromIDs(c, ids)
	if err != nil {
		panic(err)
	}
	return r
}

func oracleEllipsoid(c sfc.Curve, e Ellipsoid) *Region {
	side := float64(uint32(1) << c.Bits())
	clamp := func(v float64) uint32 {
		if v < 0 {
			return 0
		}
		if v > side-1 {
			return uint32(side - 1)
		}
		return uint32(v)
	}
	b := Box{
		Min: sfc.Pt(clamp(e.CX-e.RX), clamp(e.CY-e.RY), clamp(e.CZ-e.RZ)),
		Max: sfc.Pt(clamp(e.CX+e.RX), clamp(e.CY+e.RY), clamp(e.CZ+e.RZ)),
	}
	if c.Dim() == 2 {
		b.Min.Z, b.Max.Z = 0, 0
	}
	var ids []uint64
	for z := b.Min.Z; z <= b.Max.Z; z++ {
		for y := b.Min.Y; y <= b.Max.Y; y++ {
			for x := b.Min.X; x <= b.Max.X; x++ {
				if p := sfc.Pt(x, y, z); e.Contains(p) {
					ids = append(ids, c.ID(p))
				}
			}
		}
	}
	r, err := FromIDs(c, ids)
	if err != nil {
		panic(err)
	}
	return r
}

// TestShapesMatchOracle holds FromBox and FromEllipsoid to the
// id-and-sort oracle, run for run, on every curve and grid of dims 2-3
// and bits 1-7: random boxes and the boxes at the grid's edges, random
// ellipsoids, ellipsoids with integer centres and semi-axes (whose
// surfaces pass exactly through grid points), semi-axes under half a
// voxel, and ellipsoids partly or wholly off the grid.
func TestShapesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, kind := range []sfc.Kind{sfc.Hilbert, sfc.ZOrder, sfc.Scanline} {
		for dim := 2; dim <= 3; dim++ {
			for bits := 1; bits <= 7; bits++ {
				c := sfc.MustNew(kind, dim, bits)
				for _, b := range oracleBoxes(rng, dim, bits) {
					got, err := FromBox(c, b)
					if err != nil {
						t.Fatalf("%v %dD bits=%d box %v..%v: %v", kind, dim, bits, b.Min, b.Max, err)
					}
					if want := oracleBox(c, b); !got.Equal(want) {
						t.Fatalf("%v %dD bits=%d box %v..%v: %v, oracle %v", kind, dim, bits, b.Min, b.Max, got, want)
					}
				}
				for _, e := range oracleEllipsoids(rng, dim, bits) {
					got, err := FromEllipsoid(c, e)
					if err != nil {
						t.Fatalf("%v %dD bits=%d %+v: %v", kind, dim, bits, e, err)
					}
					if want := oracleEllipsoid(c, e); !got.Equal(want) {
						t.Fatalf("%v %dD bits=%d %+v: %v, oracle %v", kind, dim, bits, e, got, want)
					}
				}
			}
		}
	}
}

// oracleBoxes returns the full grid, its corner voxels, slabs along
// each face and random boxes, some touching an edge of the grid.
func oracleBoxes(rng *rand.Rand, dim, bits int) []Box {
	m := uint32(1)<<bits - 1
	zm := m
	if dim == 2 {
		zm = 0
	}
	boxes := []Box{
		{Max: sfc.Pt(m, m, zm)},
		{},
		{Min: sfc.Pt(m, m, zm), Max: sfc.Pt(m, m, zm)},
		{Min: sfc.Pt(m, 0, 0), Max: sfc.Pt(m, m, zm)},
		{Max: sfc.Pt(m, 0, zm)},
		{Min: sfc.Pt(0, 0, zm), Max: sfc.Pt(m, m, zm)},
	}
	coord := func(top uint32) (uint32, uint32) {
		a, b := uint32(rng.Intn(int(top)+1)), uint32(rng.Intn(int(top)+1))
		switch rng.Intn(4) {
		case 0:
			a = 0
		case 1:
			b = top
		}
		return min(a, b), max(a, b)
	}
	for i := 0; i < 12; i++ {
		var b Box
		b.Min.X, b.Max.X = coord(m)
		b.Min.Y, b.Max.Y = coord(m)
		b.Min.Z, b.Max.Z = coord(zm)
		if i%4 == 0 { // a single voxel
			b.Max = b.Min
		}
		boxes = append(boxes, b)
	}
	return boxes
}

// oracleEllipsoids returns random ellipsoids over and around the grid,
// integer ones, thin ones and ones off it.
func oracleEllipsoids(rng *rand.Rand, dim, bits int) []Ellipsoid {
	side := float64(int(1) << bits)
	var es []Ellipsoid
	for i := 0; i < 8; i++ { // random, centres up to a quarter side off the grid
		u := func() float64 { return (rng.Float64()*1.5 - 0.25) * side }
		r := func() float64 { return rng.Float64()*side/2 + 0.1 }
		es = append(es, Ellipsoid{CX: u(), CY: u(), CZ: u(), RX: r(), RY: r(), RZ: r()})
	}
	for i := 0; i < 6; i++ { // integer centres and semi-axes
		u := func() float64 { return float64(rng.Intn(int(side))) }
		r := func() float64 { return float64(1 + rng.Intn(int(side)/2+1)) }
		es = append(es, Ellipsoid{CX: u(), CY: u(), CZ: u(), RX: r(), RY: r(), RZ: r()})
	}
	es = append(es,
		Ellipsoid{CX: side / 2, CY: side / 2, CZ: side / 2, RX: 0.3, RY: 0.4, RZ: 0.49},           // under half a voxel
		Ellipsoid{CX: 1.5, CY: 0, CZ: 1, RX: 0.5, RY: 0.25, RZ: side},                             // thin
		Ellipsoid{CX: side / 2, CY: side / 2, CZ: side / 2, RX: side, RY: side, RZ: side},         // holds the grid
		Ellipsoid{CX: -3, CY: side / 2, CZ: side / 2, RX: 4, RY: side / 3, RZ: side / 3},          // partly off
		Ellipsoid{CX: side + 2, CY: side + 2, CZ: side + 2, RX: 1.5, RY: 1.5, RZ: 1.5},            // wholly off
		Ellipsoid{CX: -side, CY: -side, CZ: -side, RX: side / 2, RY: side / 2, RZ: side / 2},      // wholly off, below
		Ellipsoid{CX: side / 2, CY: side / 2, CZ: side / 2, RX: side / 2, RY: side / 2, RZ: 1e-3}, // a flat disc
	)
	if dim == 2 {
		for i := range es {
			if i%2 == 0 {
				es[i].CZ = 0
			}
		}
	}
	return es
}

// TestFromBoxAllocs pins FromBox at two allocations, the Region and its
// runs: the walk's classifier and emitter live on the stack.
func TestFromBoxAllocs(t *testing.T) {
	c := sfc.MustNew(sfc.Hilbert, 3, 7)
	b := Box{Min: sfc.Pt(30, 30, 30), Max: sfc.Pt(100, 100, 100)}
	if got := testing.AllocsPerRun(20, func() {
		if _, err := FromBox(c, b); err != nil {
			t.Fatal(err)
		}
	}); got > 2 {
		t.Errorf("FromBox allocates %.1f/op, want <= 2", got)
	}
}

// TestFromBoxInto: a box built into a Region and a run buffer is
// FromBox's, in the buffer when it has room and in one exactly sized
// run list when it has not; a bad box leaves the Region as it was, and a
// box built in the Region's own runs allocates nothing.
func TestFromBoxInto(t *testing.T) {
	c := sfc.MustNew(sfc.Hilbert, 3, 7)
	q2 := Box{Min: sfc.Pt(30, 30, 30), Max: sfc.Pt(100, 100, 100)}
	want, err := FromBox(c, q2)
	if err != nil {
		t.Fatal(err)
	}
	n := want.NumRuns()
	var r Region
	short := make([]Run, 0, n-1)
	if err := FromBoxInto(&r, c, q2, short); err != nil {
		t.Fatal(err)
	}
	if !r.Equal(want) || cap(r.RunsView()) != n {
		t.Errorf("short buffer: %d runs in a %d-run list, want FromBox's %d in an exactly sized one", r.NumRuns(), cap(r.RunsView()), n)
	}
	roomy := make([]Run, 0, n+5)
	if err := FromBoxInto(&r, c, q2, roomy); err != nil {
		t.Fatal(err)
	}
	if !r.Equal(want) || &r.RunsView()[0] != &roomy[:1][0] {
		t.Error("a buffer with room: the runs are not FromBox's, or not built in it")
	}
	if err := FromBoxInto(&r, c, Box{Min: sfc.Pt(0, 0, 0), Max: sfc.Pt(128, 0, 0)}, nil); err == nil {
		t.Error("a box past the grid was accepted")
	}
	if !r.Equal(want) {
		t.Error("a refused box changed the Region")
	}
	small := Box{Min: sfc.Pt(40, 50, 60), Max: sfc.Pt(55, 65, 75)}
	if got := testing.AllocsPerRun(20, func() {
		if err := FromBoxInto(&r, c, small, r.RunsView()); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("FromBoxInto in the Region's own runs allocates %.1f/op, want 0", got)
	}
	if want, _ := FromBox(c, small); !r.Equal(want) {
		t.Error("a box built in the Region's own runs is not FromBox's")
	}
}

// BenchmarkFromBox builds the paper's Q2 probe, the 71^3 box with
// corners (30,30,30) and (100,100,100), on the 128^3 Hilbert grid.
func BenchmarkFromBox(b *testing.B) {
	c := sfc.MustNew(sfc.Hilbert, 3, 7)
	box := Box{Min: sfc.Pt(30, 30, 30), Max: sfc.Pt(100, 100, 100)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := FromBox(c, box); err != nil {
			b.Fatal(err)
		}
	}
}
