package sfc

import "testing"

// The Hilbert encode/decode pair is the innermost loop of every region
// recode, box rasterization, and voxel extraction — at paper scale
// (128^3 grids) a single full-volume operation decodes 2M ids. The
// state machine works in registers, so neither direction may allocate;
// these tests pin that down so a refactor that reintroduces a
// heap-escaping scratch slice fails loudly rather than silently costing
// 2M allocations per volume walk.

func TestHilbertAllocFree(t *testing.T) {
	c := MustNew(Hilbert, 3, 7) // paper-scale 128^3 grid
	var sink Point
	var sinkID uint64
	if avg := testing.AllocsPerRun(1000, func() {
		sink = c.Point(1234567)
	}); avg != 0 {
		t.Errorf("Point allocates %.1f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		sinkID = c.ID(Pt(17, 99, 64))
	}); avg != 0 {
		t.Errorf("ID allocates %.1f/op, want 0", avg)
	}
	_, _ = sink, sinkID
}

func BenchmarkHilbertPoint(b *testing.B) {
	c := MustNew(Hilbert, 3, 7)
	n := c.Length()
	b.ReportAllocs()
	var sink Point
	for i := 0; i < b.N; i++ {
		sink = c.Point(uint64(i) % n)
	}
	_ = sink
}

func BenchmarkHilbertID(b *testing.B) {
	c := MustNew(Hilbert, 3, 7)
	mask := uint32(1)<<7 - 1
	b.ReportAllocs()
	var sink uint64
	for i := 0; i < b.N; i++ {
		v := uint32(i)
		sink = c.ID(Pt(v&mask, (v>>7)&mask, (v>>14)&mask))
	}
	_ = sink
}

func BenchmarkZOrderDecode(b *testing.B) {
	c := MustNew(ZOrder, 3, 7)
	n := c.Length()
	b.ReportAllocs()
	var sink Point
	for i := 0; i < b.N; i++ {
		sink = c.Point(uint64(i) % n)
	}
	_ = sink
}
