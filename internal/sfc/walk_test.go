package sfc

import "testing"

// TestHilbertGatherEqualsPoint holds the tree walk to the per-id
// decode it replaces, exhaustively: gathering the row-major indices
// themselves must give, at every id, the scanline id of Point(id) —
// over the whole curve in one walk, and over stretches that start and
// end inside subtrees of every level.
func TestHilbertGatherEqualsPoint(t *testing.T) {
	for dim := 2; dim <= 3; dim++ {
		for bits := 1; bits <= 7; bits++ {
			c, lin := MustNew(Hilbert, dim, bits), MustNew(Scanline, dim, bits)
			n := c.Length()
			scan := make([]uint32, n)
			want := make([]uint32, n)
			for id := uint64(0); id < n; id++ {
				scan[id] = uint32(id)
				want[id] = uint32(lin.ID(c.Point(id)))
			}
			got := make([]uint32, n)
			HilbertGather(c, got, scan, 0)
			for id := range want {
				if got[id] != want[id] {
					t.Fatalf("dim=%d bits=%d: whole walk puts row-major %d at id %d, Point says %d", dim, bits, got[id], id, want[id])
				}
			}
			// Stretches cut at odd places: each piece is its own walk.
			clear(got)
			for lo, step := uint64(0), uint64(1); lo < n; lo, step = lo+step, step*3+1 {
				hi := min(lo+step, n)
				HilbertGather(c, got[lo:hi], scan, lo)
			}
			for id := range want {
				if got[id] != want[id] {
					t.Fatalf("dim=%d bits=%d: pieced walk puts row-major %d at id %d, Point says %d", dim, bits, got[id], id, want[id])
				}
			}
		}
	}
}

func TestHilbertGatherPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	h, z := MustNew(Hilbert, 3, 2), MustNew(ZOrder, 3, 2)
	scan := make([]byte, h.Length())
	mustPanic("Z curve", func() { HilbertGather(z, make([]byte, 1), scan, 0) })
	mustPanic("past the end", func() { HilbertGather(h, make([]byte, 2), scan, h.Length()-1) })
}
