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

// TestCoverEqualsPoint holds Cover to a scan of every id: on the Hilbert
// and Z curves of dims 2-3 and bits 1-5, the runs it emits must be the
// maximal runs of ids whose points the set holds, in increasing order.
// One set is a box, decided whole wherever a cube is inside or outside
// it; the other is a scatter of voxels that only single-voxel calls
// decide, so every leaf batch and every merge across cubes is
// exercised.
func TestCoverEqualsPoint(t *testing.T) {
	type set struct {
		name     string
		classify func(lo, hi Point) Cell
		contains func(p Point) bool
	}
	for _, kind := range []Kind{Hilbert, ZOrder} {
		for dim := 2; dim <= 3; dim++ {
			for bits := 1; bits <= 5; bits++ {
				c := MustNew(kind, dim, bits)
				m := uint32(1)<<bits - 1
				bmin, bmax := Pt(m/4, m/3, 0), Pt(m, m*2/3, 0)
				if dim == 3 {
					bmin.Z, bmax.Z = m/2, m
				}
				inBox := func(p Point) bool {
					return p.X >= bmin.X && p.X <= bmax.X && p.Y >= bmin.Y && p.Y <= bmax.Y && p.Z >= bmin.Z && p.Z <= bmax.Z
				}
				scatter := func(p Point) bool { return (p.X*7+p.Y*13+p.Z*29)%5 < 2 }
				sets := []set{
					{"box", func(lo, hi Point) Cell {
						switch {
						case inBox(lo) && inBox(hi):
							return In
						case hi.X < bmin.X || lo.X > bmax.X || hi.Y < bmin.Y || lo.Y > bmax.Y || hi.Z < bmin.Z || lo.Z > bmax.Z:
							return Out
						}
						return Partial
					}, inBox},
					{"scatter", func(lo, hi Point) Cell {
						if lo != hi {
							return Partial
						}
						if scatter(lo) {
							return In
						}
						return Out
					}, scatter},
				}
				for _, s := range sets {
					var want [][2]uint64
					for id := uint64(0); id < c.Length(); id++ {
						if !s.contains(c.Point(id)) {
							continue
						}
						if n := len(want); n > 0 && want[n-1][1]+1 == id {
							want[n-1][1] = id
						} else {
							want = append(want, [2]uint64{id, id})
						}
					}
					var got [][2]uint64
					Cover(c, s.classify, func(first, last uint64) { got = append(got, [2]uint64{first, last}) })
					if len(got) != len(want) {
						t.Fatalf("%v %dD bits=%d %s: %d runs, want %d", kind, dim, bits, s.name, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%v %dD bits=%d %s: run %d is %v, want %v", kind, dim, bits, s.name, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestCoverWholeGridAndNothing: a root called In is one run, a root
// called Out none, and a voxel called Partial is left out.
func TestCoverWholeGridAndNothing(t *testing.T) {
	c := MustNew(Hilbert, 3, 4)
	var runs [][2]uint64
	emit := func(first, last uint64) { runs = append(runs, [2]uint64{first, last}) }
	Cover(c, func(lo, hi Point) Cell { return In }, emit)
	if len(runs) != 1 || runs[0] != [2]uint64{0, c.Length() - 1} {
		t.Errorf("all In: %v", runs)
	}
	runs = nil
	Cover(c, func(lo, hi Point) Cell { return Out }, emit)
	Cover(c, func(lo, hi Point) Cell { return Partial }, emit)
	if len(runs) != 0 {
		t.Errorf("all Out, then all Partial: %v", runs)
	}
}

func TestCoverPanicsOnScanline(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Cover on a scanline curve did not panic")
		}
	}()
	Cover(MustNew(Scanline, 3, 2), func(lo, hi Point) Cell { return In }, func(first, last uint64) {})
}
