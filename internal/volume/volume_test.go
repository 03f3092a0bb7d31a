package volume

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"qbism/internal/region"
	"qbism/internal/sfc"
)

var (
	h3 = sfc.MustNew(sfc.Hilbert, 3, 4)
	z3 = sfc.MustNew(sfc.ZOrder, 3, 4)
	l3 = sfc.MustNew(sfc.Scanline, 3, 4)
)

func randBytes(rng *rand.Rand, n uint64) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestNewValidation(t *testing.T) {
	if _, err := New(h3, make([]byte, 7)); err == nil {
		t.Error("wrong-length data accepted")
	}
	v, err := New(h3, make([]byte, h3.Length()))
	if err != nil || v.NumVoxels() != h3.Length() {
		t.Errorf("New: %v, %v", v, err)
	}
}

func TestFromScanlinePreservesGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	scan := randBytes(rng, l3.Length())
	for _, c := range []sfc.Curve{h3, z3, l3} {
		v, err := FromScanline(c, scan)
		if err != nil {
			t.Fatal(err)
		}
		// Every grid point must carry the same value as the scanline array.
		for i := 0; i < 500; i++ {
			p := sfc.Pt(rng.Uint32()&15, rng.Uint32()&15, rng.Uint32()&15)
			want := scan[l3.ID(p)]
			if got := v.ValueAt(p); got != want {
				t.Fatalf("%s: ValueAt(%v) = %d, want %d", c.Kind(), p, got, want)
			}
		}
	}
	if _, err := FromScanline(h3, make([]byte, 3)); err == nil {
		t.Error("short scanline accepted")
	}
}

// TestFromScanlineSplitEqualsSerial reorders a grid large enough to be
// cut into id ranges and checks every byte against the one-loop
// definition, at one processor and at several.
func TestFromScanlineSplitEqualsSerial(t *testing.T) {
	h, l := sfc.MustNew(sfc.Hilbert, 3, 6), sfc.MustNew(sfc.Scanline, 3, 6)
	scan := randBytes(rand.New(rand.NewSource(7)), l.Length())
	want := make([]byte, len(scan))
	for id := range want {
		want[id] = scan[l.ID(h.Point(uint64(id)))]
	}
	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		v, err := FromScanline(h, scan)
		runtime.GOMAXPROCS(old)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(v.Bytes(), want) {
			t.Fatalf("GOMAXPROCS=%d: reordered volume differs from the serial definition", procs)
		}
	}
}

func TestFromScanlineCopiesInput(t *testing.T) {
	scan := make([]byte, l3.Length())
	v, err := FromScanline(l3, scan)
	if err != nil {
		t.Fatal(err)
	}
	scan[0] = 99
	if v.ValueAtID(0) == 99 {
		t.Error("FromScanline aliased the input slice")
	}
}

func TestFromFuncAndValueAt(t *testing.T) {
	v := FromFunc(h3, func(p sfc.Point) uint8 { return uint8(p.X + p.Y + p.Z) })
	if got := v.ValueAt(sfc.Pt(3, 5, 7)); got != 15 {
		t.Errorf("ValueAt = %d, want 15", got)
	}
	if got := v.ValueAtID(h3.ID(sfc.Pt(1, 2, 3))); got != 6 {
		t.Errorf("ValueAtID = %d, want 6", got)
	}
}

func TestRecode(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	scan := randBytes(rng, l3.Length())
	vh, _ := FromScanline(h3, scan)
	vz, err := vh.Recode(z3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		p := sfc.Pt(rng.Uint32()&15, rng.Uint32()&15, rng.Uint32()&15)
		if vh.ValueAt(p) != vz.ValueAt(p) {
			t.Fatalf("recode changed value at %v", p)
		}
	}
	big := sfc.MustNew(sfc.Hilbert, 3, 5)
	if _, err := vh.Recode(big); err == nil {
		t.Error("recode to different grid accepted")
	}
}

func TestHistogram(t *testing.T) {
	v := FromFunc(h3, func(p sfc.Point) uint8 {
		if p.X == 0 {
			return 200
		}
		return 10
	})
	h := v.Histogram()
	if h[200] != 16*16 || h[10] != h3.Length()-256 {
		t.Errorf("histogram: h[200]=%d h[10]=%d", h[200], h[10])
	}
}

func TestBandMatchesPredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v, _ := New(h3, randBytes(rng, h3.Length()))
	band, err := v.Band(100, 149)
	if err != nil {
		t.Fatal(err)
	}
	want := region.FromPredicate(h3, func(p sfc.Point) bool {
		x := v.ValueAt(p)
		return x >= 100 && x <= 149
	})
	if !band.Equal(want) {
		t.Error("band region does not match predicate region")
	}
	if _, err := v.Band(5, 4); err == nil {
		t.Error("inverted band accepted")
	}
}

func TestUniformBandsPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	v, _ := New(h3, randBytes(rng, h3.Length()))
	bands, err := v.UniformBands(32)
	if err != nil {
		t.Fatal(err)
	}
	if len(bands) != 8 {
		t.Fatalf("got %d bands, want 8", len(bands))
	}
	var total uint64
	acc := region.Empty(h3)
	for i, b := range bands {
		if b.Lo != uint8(i*32) || b.Hi != uint8(i*32+31) {
			t.Errorf("band %d bounds [%d,%d]", i, b.Lo, b.Hi)
		}
		total += b.Region.NumVoxels()
		inter, _ := region.Intersect(acc, b.Region)
		if !inter.Empty() {
			t.Errorf("band %d overlaps earlier bands", i)
		}
		acc, _ = region.Union(acc, b.Region)
	}
	if total != h3.Length() {
		t.Errorf("bands cover %d voxels, want %d", total, h3.Length())
	}
	for _, w := range []int{0, 3, 257} {
		if _, err := v.UniformBands(w); err == nil {
			t.Errorf("width %d accepted", w)
		}
	}
}

// TestUniformBandsEqualsBandCalls pins the single-pass banding to the
// per-band scan it replaced: same bounds, same runs, for noisy data
// (short runs), smooth data (long runs, empty bands) and every width.
func TestUniformBandsEqualsBandCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	noisy, _ := New(h3, randBytes(rng, h3.Length()))
	smooth := FromFunc(h3, func(p sfc.Point) uint8 { return uint8(40 + 6*p.X + 2*p.Z) })
	flat, _ := New(h3, make([]byte, h3.Length()))
	for name, v := range map[string]*Volume{"noisy": noisy, "smooth": smooth, "flat": flat} {
		for _, width := range []int{1, 32, 64, 256} {
			bands, err := v.UniformBands(width)
			if err != nil {
				t.Fatal(err)
			}
			if len(bands) != 256/width {
				t.Fatalf("%s width %d: %d bands", name, width, len(bands))
			}
			for i, b := range bands {
				lo, hi := i*width, i*width+width-1
				want, err := v.Band(uint8(lo), uint8(hi))
				if err != nil {
					t.Fatal(err)
				}
				if int(b.Lo) != lo || int(b.Hi) != hi || !b.Region.Equal(want) {
					t.Fatalf("%s width %d band %d: [%d,%d] %d runs, Band gives [%d,%d] %d runs",
						name, width, i, b.Lo, b.Hi, b.Region.NumRuns(), lo, hi, want.NumRuns())
				}
			}
		}
	}
}

func TestExtract(t *testing.T) {
	v := FromFunc(h3, func(p sfc.Point) uint8 { return uint8(p.X) })
	r, err := region.FromBox(h3, region.Box{Min: sfc.Pt(2, 2, 2), Max: sfc.Pt(4, 4, 4)})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Extract(v, r)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumVoxels() != 27 {
		t.Fatalf("extracted %d voxels, want 27", d.NumVoxels())
	}
	d.ForEach(func(p sfc.Point, val uint8) bool {
		if val != uint8(p.X) {
			t.Fatalf("value at %v = %d, want %d", p, val, p.X)
		}
		return true
	})
	// Mismatched curves are rejected.
	rz, _ := r.Recode(z3)
	if _, err := Extract(v, rz); err == nil {
		t.Error("extract with z region from hilbert volume accepted")
	}
}

func TestDataRegionValueAtID(t *testing.T) {
	v := FromFunc(h3, func(p sfc.Point) uint8 { return uint8(p.Y * 3) })
	r, _ := region.FromBox(h3, region.Box{Min: sfc.Pt(0, 5, 0), Max: sfc.Pt(3, 6, 3)})
	d, _ := Extract(v, r)
	r.ForEachID(func(id uint64) bool {
		got, ok := d.ValueAtID(id)
		if !ok || got != v.ValueAtID(id) {
			t.Fatalf("ValueAtID(%d) = %d,%v", id, got, ok)
		}
		return true
	})
	if _, ok := d.ValueAtID(h3.Length() - 1); ok && !r.ContainsID(h3.Length()-1) {
		t.Error("ValueAtID reported outside voxel as present")
	}
}

func TestDataRegionStats(t *testing.T) {
	v := FromFunc(h3, func(p sfc.Point) uint8 { return 100 })
	d, _ := Extract(v, region.Full(h3))
	s := d.Stats()
	if s.N != h3.Length() || s.Min != 100 || s.Max != 100 || s.Mean != 100 {
		t.Errorf("stats = %+v", s)
	}
	if s.Histogram[100] != h3.Length() {
		t.Error("histogram wrong")
	}
	empty := &DataRegion{Region: region.Empty(h3)}
	if s := empty.Stats(); s.N != 0 {
		t.Errorf("empty stats = %+v", s)
	}
}

func TestDataRegionFilter(t *testing.T) {
	v := FromFunc(h3, func(p sfc.Point) uint8 { return uint8(p.Z * 10) })
	d, _ := Extract(v, region.Full(h3))
	f, err := d.Filter(20, 30)
	if err != nil {
		t.Fatal(err)
	}
	// Z in {2,3} qualifies: values 20 and 30.
	want := uint64(16 * 16 * 2)
	if f.NumVoxels() != want {
		t.Errorf("filtered %d voxels, want %d", f.NumVoxels(), want)
	}
	f.ForEach(func(p sfc.Point, val uint8) bool {
		if p.Z != 2 && p.Z != 3 {
			t.Fatalf("voxel %v should have been filtered out", p)
		}
		return true
	})
	if _, err := d.Filter(9, 3); err == nil {
		t.Error("inverted filter accepted")
	}
}

// TestExtractThenFilterEqualsBandIntersect property-tests the paper's
// mixed-query identity: extracting a structure then filtering by band
// yields the same voxels as intersecting the structure with the band
// REGION and extracting.
func TestExtractThenFilterEqualsBandIntersect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v, _ := New(h3, randBytes(rng, h3.Length()))
		sphere, err := region.FromSphere(h3, 8, 8, 8, float64(3+rng.Intn(5)))
		if err != nil {
			return false
		}
		lo := uint8(rng.Intn(200))
		hi := lo + uint8(rng.Intn(55))

		d, err := Extract(v, sphere)
		if err != nil {
			return false
		}
		viaFilter, err := d.Filter(lo, hi)
		if err != nil {
			return false
		}

		band, err := v.Band(lo, hi)
		if err != nil {
			return false
		}
		mixed, err := region.Intersect(sphere, band)
		if err != nil {
			return false
		}
		viaIntersect, err := Extract(v, mixed)
		if err != nil {
			return false
		}

		if !viaFilter.Region.Equal(viaIntersect.Region) {
			return false
		}
		if len(viaFilter.Values) != len(viaIntersect.Values) {
			return false
		}
		for i := range viaFilter.Values {
			if viaFilter.Values[i] != viaIntersect.Values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestVoxelwiseMean(t *testing.T) {
	v1 := FromFunc(h3, func(p sfc.Point) uint8 { return 10 })
	v2 := FromFunc(h3, func(p sfc.Point) uint8 { return 30 })
	r, _ := region.FromBox(h3, region.Box{Min: sfc.Pt(0, 0, 0), Max: sfc.Pt(3, 3, 3)})
	d, err := VoxelwiseMean(r, []*Volume{v1, v2})
	if err != nil {
		t.Fatal(err)
	}
	for _, val := range d.Values {
		if val != 20 {
			t.Fatalf("mean = %d, want 20", val)
		}
	}
	if _, err := VoxelwiseMean(r, nil); err == nil {
		t.Error("no volumes accepted")
	}
}

func BenchmarkExtractSphere(b *testing.B) {
	c := sfc.MustNew(sfc.Hilbert, 3, 7)
	v := FromFunc(c, func(p sfc.Point) uint8 { return uint8(p.X) })
	r, err := region.FromSphere(c, 64, 64, 64, 30)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Extract(v, r); err != nil {
			b.Fatal(err)
		}
	}
}
