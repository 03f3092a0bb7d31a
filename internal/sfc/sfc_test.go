package sfc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func allKinds() []Kind { return []Kind{Hilbert, ZOrder, Scanline} }

func TestNewValidation(t *testing.T) {
	cases := []struct {
		kind      Kind
		dim, bits int
		ok        bool
	}{
		{Hilbert, 3, 7, true},
		{ZOrder, 2, 2, true},
		{Scanline, 3, 21, true},
		{Hilbert, 1, 4, false},
		{Hilbert, 4, 4, false},
		{Hilbert, 3, 0, false},
		{Hilbert, 3, 22, false}, // 66 bits > 63
		{ZOrder, 2, 32, false},
		{Kind(99), 3, 7, false},
	}
	for _, c := range cases {
		_, err := New(c.kind, c.dim, c.bits)
		if (err == nil) != c.ok {
			t.Errorf("New(%v,%d,%d): err=%v, want ok=%v", c.kind, c.dim, c.bits, err, c.ok)
		}
	}
}

// TestNewAllocFree: decoders call New once per stored REGION, so it must
// hand out an already boxed curve — for every admissible (kind, dim,
// bits), the one that reports exactly those, comparable with ==.
func TestNewAllocFree(t *testing.T) {
	for _, kind := range allKinds() {
		for dim := 2; dim <= 3; dim++ {
			for bits := 1; dim*bits <= 63; bits++ {
				c, err := New(kind, dim, bits)
				if err != nil {
					t.Fatalf("New(%v,%d,%d): %v", kind, dim, bits, err)
				}
				if c.Kind() != kind || c.Dim() != dim || c.Bits() != bits {
					t.Errorf("New(%v,%d,%d) returned a %v curve of dim %d, bits %d", kind, dim, bits, c.Kind(), c.Dim(), c.Bits())
				}
				if again, _ := New(kind, dim, bits); again != c {
					t.Errorf("New(%v,%d,%d) twice: curves differ under ==", kind, dim, bits)
				}
			}
		}
	}
	var c Curve // outlives the closure, so the call is not optimized away
	for _, kind := range allKinds() {
		if n := testing.AllocsPerRun(100, func() { c, _ = New(kind, 3, 7) }); n != 0 {
			t.Errorf("New(%v,3,7) allocates %.0f time(s) per call, want 0", kind, n)
		}
	}
	_ = c
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with bad args did not panic")
		}
	}()
	MustNew(Hilbert, 5, 5)
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{Hilbert: "hilbert", ZOrder: "zorder", Scanline: "scanline", Kind(42): "Kind(42)"}
	for k, s := range want {
		if got := k.String(); got != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, s)
		}
	}
}

// TestBijectionExhaustive walks every id of small grids for every curve
// and checks Point/ID are inverse bijections covering the whole grid.
func TestBijectionExhaustive(t *testing.T) {
	for _, kind := range allKinds() {
		for _, dim := range []int{2, 3} {
			for _, bits := range []int{1, 2, 3, 4} {
				c := MustNew(kind, dim, bits)
				seen := make(map[Point]bool)
				for id := uint64(0); id < c.Length(); id++ {
					p := c.Point(id)
					if seen[p] {
						t.Fatalf("%v dim=%d bits=%d: point %v repeated", kind, dim, bits, p)
					}
					seen[p] = true
					if back := c.ID(p); back != id {
						t.Fatalf("%v dim=%d bits=%d: ID(Point(%d)) = %d", kind, dim, bits, id, back)
					}
				}
				if uint64(len(seen)) != c.Length() {
					t.Fatalf("%v dim=%d bits=%d: covered %d of %d points", kind, dim, bits, len(seen), c.Length())
				}
			}
		}
	}
}

// TestBijectionQuick property-tests round trips on the full 128^3 and
// 512^3 grids used by the paper.
func TestBijectionQuick(t *testing.T) {
	for _, kind := range allKinds() {
		for _, bits := range []int{7, 9} {
			c := MustNew(kind, 3, bits)
			mask := uint32(1)<<bits - 1
			f := func(x, y, z uint32) bool {
				p := Pt(x&mask, y&mask, z&mask)
				return c.Point(c.ID(p)) == p
			}
			if err := quick.Check(f, nil); err != nil {
				t.Errorf("%v bits=%d: %v", kind, bits, err)
			}
		}
	}
}

// TestHilbertAdjacency checks the defining property of the Hilbert curve:
// consecutive ids map to grid points at L1 distance exactly 1.
func TestHilbertAdjacency(t *testing.T) {
	for _, dim := range []int{2, 3} {
		for _, bits := range []int{2, 3, 4} {
			c := MustNew(Hilbert, dim, bits)
			prev := c.Point(0)
			for id := uint64(1); id < c.Length(); id++ {
				p := c.Point(id)
				if l1(prev, p) != 1 {
					t.Fatalf("dim=%d bits=%d: ids %d,%d map to %v,%v (L1 %d)",
						dim, bits, id-1, id, prev, p, l1(prev, p))
				}
				prev = p
			}
		}
	}
}

// TestHilbertAdjacencySampled spot-checks adjacency on the 128^3 grid,
// too big to walk exhaustively.
func TestHilbertAdjacencySampled(t *testing.T) {
	c := MustNew(Hilbert, 3, 7)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		id := rng.Uint64() % (c.Length() - 1)
		if d := l1(c.Point(id), c.Point(id+1)); d != 1 {
			t.Fatalf("ids %d,%d at L1 distance %d", id, id+1, d)
		}
	}
}

func l1(a, b Point) int {
	d := func(x, y uint32) int {
		if x > y {
			return int(x - y)
		}
		return int(y - x)
	}
	return d(a.X, b.X) + d(a.Y, b.Y) + d(a.Z, b.Z)
}

// TestZOrderPaperExample verifies the z-id construction from Figure 2 of
// the paper: the 1x1 square at x=01, y=00 has z-id x1 y1 x0 y0 = 0010 = 2,
// and the upper-left quadrant (x in 0..1, y in 2..3) has prefix 01**.
func TestZOrderPaperExample(t *testing.T) {
	c := MustNew(ZOrder, 2, 2)
	if got := c.ID(Pt(1, 0, 0)); got != 2 {
		t.Errorf("z-id of (1,0) = %d, want 2", got)
	}
	// Upper-left quadrant: x in {0,1}, y in {2,3} -> ids 4..7 ("01**").
	for x := uint32(0); x < 2; x++ {
		for y := uint32(2); y < 4; y++ {
			id := c.ID(Pt(x, y, 0))
			if id < 4 || id > 7 {
				t.Errorf("z-id of (%d,%d) = %d, want in [4,7]", x, y, id)
			}
		}
	}
}

// TestZOrderBitInterleave cross-checks the SWAR interleavers against a
// bit-by-bit reference on random inputs.
func TestZOrderBitInterleave(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		v := rng.Uint32() & (1<<21 - 1)
		var want2, want3 uint64
		for b := 20; b >= 0; b-- {
			bit := uint64(v >> b & 1)
			want2 = want2<<2 | bit
			want3 = want3<<3 | bit
		}
		if got := interleave2(v, 21); got != want2 {
			t.Fatalf("interleave2(%#x) = %#x, want %#x", v, got, want2)
		}
		if got := interleave3(v, 21); got != want3 {
			t.Fatalf("interleave3(%#x) = %#x, want %#x", v, got, want3)
		}
		if got := deinterleave2(want2, 21); got != v {
			t.Fatalf("deinterleave2 round trip failed for %#x", v)
		}
		if got := deinterleave3(want3, 21); got != v {
			t.Fatalf("deinterleave3 round trip failed for %#x", v)
		}
	}
}

func TestScanlineOrder(t *testing.T) {
	c := MustNew(Scanline, 3, 2)
	// id 0 -> (0,0,0); id 1 -> (1,0,0); id 4 -> (0,1,0); id 16 -> (0,0,1)
	cases := map[uint64]Point{
		0:  Pt(0, 0, 0),
		1:  Pt(1, 0, 0),
		4:  Pt(0, 1, 0),
		16: Pt(0, 0, 1),
		63: Pt(3, 3, 3),
	}
	for id, want := range cases {
		if got := c.Point(id); got != want {
			t.Errorf("Point(%d) = %v, want %v", id, got, want)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	c := MustNew(Hilbert, 3, 3)
	assertPanics(t, "point X", func() { c.ID(Pt(8, 0, 0)) })
	assertPanics(t, "point Z", func() { c.ID(Pt(0, 0, 8)) })
	assertPanics(t, "id", func() { c.Point(c.Length()) })
	c2 := MustNew(ZOrder, 2, 3)
	assertPanics(t, "2D with Z", func() { c2.ID(Pt(0, 0, 1)) })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

// TestHilbertFirstCell checks the curve starts at the origin, matching
// the conventional orientation used throughout the paper's figures.
func TestHilbertFirstCell(t *testing.T) {
	for _, dim := range []int{2, 3} {
		c := MustNew(Hilbert, dim, 4)
		if got := c.Point(0); got != Pt(0, 0, 0) {
			t.Errorf("dim=%d: Point(0) = %v, want origin", dim, got)
		}
	}
}

func BenchmarkZOrderID3D(b *testing.B) {
	c := MustNew(ZOrder, 3, 7)
	for i := 0; i < b.N; i++ {
		c.ID(Pt(uint32(i)&127, uint32(i>>7)&127, uint32(i>>14)&127))
	}
}
