package region

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"qbism/internal/sfc"
)

// randRegion builds a random region on c with up to maxIDs voxels.
func randRegion(rng *rand.Rand, c sfc.Curve, maxIDs int) *Region {
	n := rng.Intn(maxIDs)
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = rng.Uint64() % c.Length()
	}
	r, err := FromIDs(c, ids)
	if err != nil {
		panic(err)
	}
	return r
}

// refSet converts a region to a map for brute-force reference checks.
func refSet(r *Region) map[uint64]bool {
	m := make(map[uint64]bool)
	r.ForEachID(func(id uint64) bool { m[id] = true; return true })
	return m
}

func TestIntersectBasic(t *testing.T) {
	a, _ := FromRuns(h3, []Run{{0, 10}, {20, 30}})
	b, _ := FromRuns(h3, []Run{{5, 25}})
	got, err := Intersect(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []Run{{5, 10}, {20, 25}}
	runs := got.Runs()
	if len(runs) != 2 || runs[0] != want[0] || runs[1] != want[1] {
		t.Errorf("intersect = %v, want %v", runs, want)
	}
}

func TestUnionAdjacentMerges(t *testing.T) {
	a, _ := FromRuns(h3, []Run{{0, 4}})
	b, _ := FromRuns(h3, []Run{{5, 9}})
	got, _ := Union(a, b)
	if runs := got.Runs(); len(runs) != 1 || runs[0] != (Run{0, 9}) {
		t.Errorf("union = %v, want [<0,9>]", runs)
	}
}

func TestDifferenceSplitsRuns(t *testing.T) {
	a, _ := FromRuns(h3, []Run{{0, 20}})
	b, _ := FromRuns(h3, []Run{{5, 7}, {10, 12}})
	got, _ := Difference(a, b)
	want := []Run{{0, 4}, {8, 9}, {13, 20}}
	runs := got.Runs()
	if len(runs) != len(want) {
		t.Fatalf("difference = %v, want %v", runs, want)
	}
	for i := range runs {
		if runs[i] != want[i] {
			t.Errorf("difference[%d] = %v, want %v", i, runs[i], want[i])
		}
	}
}

func TestContains(t *testing.T) {
	a, _ := FromRuns(h3, []Run{{0, 100}})
	b, _ := FromRuns(h3, []Run{{5, 7}, {80, 100}})
	c, _ := FromRuns(h3, []Run{{5, 101}})
	if ok, _ := Contains(a, b); !ok {
		t.Error("a should contain b")
	}
	if ok, _ := Contains(a, c); ok {
		t.Error("a should not contain c")
	}
	if ok, _ := Contains(b, a); ok {
		t.Error("b should not contain a")
	}
	if ok, _ := Contains(a, Empty(h3)); !ok {
		t.Error("everything contains empty")
	}
}

func TestOverlaps(t *testing.T) {
	a, _ := FromRuns(h3, []Run{{0, 10}})
	b, _ := FromRuns(h3, []Run{{11, 20}})
	c, _ := FromRuns(h3, []Run{{10, 10}})
	if ok, _ := Overlaps(a, b); ok {
		t.Error("disjoint regions reported overlapping")
	}
	if ok, _ := Overlaps(a, c); !ok {
		t.Error("touching regions reported disjoint")
	}
}

func TestCurveMismatchErrors(t *testing.T) {
	a := Full(h3)
	b := Full(z3)
	if _, err := Intersect(a, b); err == nil {
		t.Error("Intersect across curves accepted")
	}
	if _, err := Union(a, b); err == nil {
		t.Error("Union across curves accepted")
	}
	if _, err := Difference(a, b); err == nil {
		t.Error("Difference across curves accepted")
	}
	if _, err := Contains(a, b); err == nil {
		t.Error("Contains across curves accepted")
	}
	if _, err := Overlaps(a, b); err == nil {
		t.Error("Overlaps across curves accepted")
	}
	if _, err := IntersectN(a, b); err == nil {
		t.Error("IntersectN across curves accepted")
	}
}

func TestIntersectN(t *testing.T) {
	if _, err := IntersectN(); err == nil {
		t.Error("IntersectN() with no args accepted")
	}
	a, _ := FromRuns(h3, []Run{{0, 100}})
	b, _ := FromRuns(h3, []Run{{50, 150}})
	c, _ := FromRuns(h3, []Run{{60, 70}, {200, 300}})
	got, err := IntersectN(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if runs := got.Runs(); len(runs) != 1 || runs[0] != (Run{60, 70}) {
		t.Errorf("IntersectN = %v, want [<60,70>]", runs)
	}
	// Early-exit path: empty intermediate with a later curve mismatch
	// must still error.
	d := Full(z3)
	if _, err := IntersectN(a, Empty(h3), d); err == nil {
		t.Error("IntersectN mismatched curve after empty accepted")
	}
}

func TestIntersectNOrderIndependent(t *testing.T) {
	// IntersectN folds smallest-first; the result must be identical to
	// pairwise left-folds in every operand order.
	a, _ := FromRuns(h3, []Run{{0, 400}})
	b, _ := FromRuns(h3, []Run{{10, 20}, {30, 40}, {50, 60}, {70, 80}, {90, 100}})
	c, _ := FromRuns(h3, []Run{{15, 95}})
	want, err := Intersect(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, err = Intersect(want, c)
	if err != nil {
		t.Fatal(err)
	}
	perms := [][]*Region{
		{a, b, c}, {a, c, b}, {b, a, c}, {b, c, a}, {c, a, b}, {c, b, a},
	}
	for _, p := range perms {
		got, err := IntersectN(p[0], p[1], p[2])
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("IntersectN order-dependent: got %v, want %v", got.Runs(), want.Runs())
		}
	}
	// Single operand passes through untouched.
	got, err := IntersectN(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(b) {
		t.Error("IntersectN(b) != b")
	}
	// An empty operand anywhere empties the result.
	got, err = IntersectN(a, Empty(h3), c)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Empty() {
		t.Error("IntersectN with empty operand not empty")
	}
}

// TestIntersectNAnswerIsNew refills IntersectN's answer in place —
// building the new list in the answer's own run-list backing, as a
// server slot reuses a Region — and checks that no operand changed: one
// operand, an empty smallest operand, and a general fold.
func TestIntersectNAnswerIsNew(t *testing.T) {
	a, _ := FromRuns(h3, []Run{{0, 100}, {200, 300}})
	b, _ := FromRuns(h3, []Run{{50, 250}})
	c, _ := FromRuns(h3, []Run{{60, 70}, {90, 220}, {280, 290}})
	for _, tc := range []struct {
		name string
		ops  []*Region
	}{
		{"one operand", []*Region{c}},
		{"empty smallest", []*Region{a, Empty(h3), c}},
		{"general", []*Region{a, b, c}},
	} {
		saved := make([][]Run, len(tc.ops))
		for i, r := range tc.ops {
			saved[i] = r.Runs()
		}
		got, err := IntersectN(tc.ops...)
		if err != nil {
			t.Fatal(err)
		}
		junk := append(got.RunsView()[:0], Run{1, 1}, Run{3, 3}, Run{5, 5}, Run{7, 7})
		if err := got.Refill(h3, junk); err != nil {
			t.Fatal(err)
		}
		for i, r := range tc.ops {
			if !SameCurve(r.Curve(), h3) || !slices.Equal(r.RunsView(), saved[i]) {
				t.Errorf("%s: refilling the answer changed operand %d to %v, was %v", tc.name, i, r.RunsView(), saved[i])
			}
		}
	}
}

// noisyBall is a fragmented blob, like one study's intensity band: the
// voxels within radius of center that a hash of (voxel, seed) keeps with
// probability keep/16.
func noisyBall(c sfc.Curve, center sfc.Point, radius, seed, keep uint32) *Region {
	return FromPredicate(c, func(p sfc.Point) bool {
		dx, dy, dz := int(p.X)-int(center.X), int(p.Y)-int(center.Y), int(p.Z)-int(center.Z)
		if dx*dx+dy*dy+dz*dz > int(radius*radius) {
			return false
		}
		h := (p.X*73856093 ^ p.Y*19349663 ^ p.Z*83492791 ^ seed*2654435761) * 2246822519
		return h>>28 < keep
	})
}

// populationOperands are n overlapping noisy balls on c, one per study.
func populationOperands(c sfc.Curve, n int, keep uint32) []*Region {
	side := uint32(1) << uint(c.Bits())
	ops := make([]*Region, n)
	for i := range ops {
		d := uint32(i % 3)
		ops[i] = noisyBall(c, sfc.Pt(side/2+d, side/2-d, side/2), side*3/8, uint32(i+1), keep)
	}
	return ops
}

// TestIntersectNAllocBudget: a fold allocates its answer's Region, its
// run list and one scratch buffer, whatever the number of operands (it
// allocated a Region per step and grew every step's list run by run
// before). An accumulator that keeps growing — every operand is the grid
// less scattered holes, so each step adds its holes — takes one more
// buffer, once.
func TestIntersectNAllocBudget(t *testing.T) {
	c := sfc.MustNew(sfc.Hilbert, 3, 5)
	ops := populationOperands(c, 8, 11)
	rng := rand.New(rand.NewSource(5))
	holes := make([]*Region, 8)
	for i := range holes {
		h, _ := Difference(Full(c), randRegion(rng, c, 3000))
		holes[i] = h
	}
	for n := 2; n <= 8; n++ {
		for _, tc := range []struct {
			name    string
			ops     []*Region
			ceiling float64
		}{
			{"population", ops[:n], 3},
			{"growing", holes[:n], 4},
		} {
			got := testing.AllocsPerRun(20, func() {
				if _, err := IntersectN(tc.ops...); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s, %d operands: %.0f allocations", tc.name, n, got)
			if got > tc.ceiling {
				t.Errorf("%s, %d operands: %.0f allocations, ceiling %.0f", tc.name, n, got, tc.ceiling)
			}
		}
	}
}

// FuzzIntersectN holds IntersectN to a pairwise left fold of Intersect,
// the oracle, over 1–8 operands decoded from the input (fuzzOperands), in
// argument order and reversed. An operand on another curve must be an
// error in either order, and the answer must never share memory with an
// operand.
func FuzzIntersectN(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, mismatch := fuzzOperands(data)
		reversed := slices.Clone(ops)
		slices.Reverse(reversed)
		if mismatch {
			for _, o := range [][]*Region{ops, reversed} {
				if _, err := IntersectN(o...); err == nil {
					t.Fatal("IntersectN accepted operands on different curves")
				}
			}
			return
		}
		want := ops[0]
		for _, r := range ops[1:] {
			var err error
			if want, err = Intersect(want, r); err != nil {
				t.Fatal(err)
			}
		}
		saved := make([][]Run, len(ops))
		for i, r := range ops {
			saved[i] = r.Runs()
		}
		for _, o := range [][]*Region{ops, reversed} {
			got, err := IntersectN(o...)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("IntersectN = %v, left fold of Intersect = %v", got.RunsView(), want.RunsView())
			}
			if err := got.Refill(got.Curve(), append(got.RunsView()[:0], Run{0, 0}, Run{2, 2})); err != nil {
				t.Fatal(err)
			}
			for i, r := range ops {
				if !slices.Equal(r.RunsView(), saved[i]) {
					t.Fatalf("refilling the answer changed operand %d", i)
				}
			}
		}
	})
}

// fuzzOperands decodes 1–8 operands on a 32 768-position Hilbert curve.
// Byte 0 holds the count (low three bits) and, when its top bit is set
// and there are two or more, which operand moves to the Z curve instead.
// Each operand starts with a kind byte: empty, the full grid, one run
// from the next three bytes, up to 31 runs from (gap, length) byte
// pairs, a few thousand runs drawn from a seed byte — large enough for
// the fold to leave its stack buffer — or the grid less such a list,
// whose holes make the accumulator grow from step to step. Running out
// of input leaves the rest empty.
func fuzzOperands(data []byte) (ops []*Region, mismatch bool) {
	h, z := sfc.MustNew(sfc.Hilbert, 3, 5), sfc.MustNew(sfc.ZOrder, 3, 5)
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	head := next()
	n := head&7 + 1
	odd := -1
	if head&0x80 != 0 && n > 1 {
		odd, mismatch = head>>3&15%n, true
	}
	last := int(h.Length()) - 1
	for i := 0; i < n; i++ {
		c := h
		if i == odd {
			c = z
		}
		var runs []Run
		switch kind := next() % 6; kind {
		case 1:
			runs = []Run{{0, uint64(last)}}
		case 2:
			lo := (next()<<8 | next()) % (last + 1)
			runs = []Run{{uint64(lo), uint64(min(lo+next()*64, last))}}
		case 3:
			pos := 0
			for k := next() % 32; k > 0 && pos <= last; k-- {
				pos += next() * 16
				hi := min(pos+next(), last)
				if pos <= hi {
					runs = append(runs, Run{uint64(pos), uint64(hi)})
				}
				pos = hi + 2
			}
		case 4, 5:
			rng := rand.New(rand.NewSource(int64(next())))
			for pos := rng.Intn(16); pos <= last; pos += 2 + rng.Intn(16) {
				hi := min(pos+rng.Intn(8), last)
				runs = append(runs, Run{uint64(pos), uint64(hi)})
				pos = hi
			}
			if kind == 5 { // the grid less those runs: folding these grows the accumulator
				r, _ := FromRuns(c, runs)
				r, _ = Complement(r)
				runs = r.Runs()
			}
		}
		r, err := FromRuns(c, runs)
		if err != nil {
			panic(err)
		}
		ops = append(ops, r)
	}
	return ops, mismatch
}

// BenchmarkIntersectN is the population fold: five overlapping,
// fragmented blobs at Bits 6 (a few thousand runs each), intersected
// smallest-first. `make bench-smoke` runs it.
func BenchmarkIntersectN(b *testing.B) {
	ops := populationOperands(sfc.MustNew(sfc.Hilbert, 3, 6), 5, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := IntersectN(ops...); err != nil {
			b.Fatal(err)
		}
	}
}

func TestComplement(t *testing.T) {
	r, _ := FromRuns(h2, []Run{{3, 9}})
	comp, err := Complement(r)
	if err != nil {
		t.Fatal(err)
	}
	if comp.NumVoxels() != 16-7 {
		t.Errorf("complement voxels = %d, want 9", comp.NumVoxels())
	}
	u, _ := Union(r, comp)
	if !u.Equal(Full(h2)) {
		t.Error("r union complement != full grid")
	}
	i, _ := Intersect(r, comp)
	if !i.Empty() {
		t.Error("r intersect complement not empty")
	}
}

// TestSetOpsAgainstReference property-tests all set operations against
// brute-force map semantics on random regions.
func TestSetOpsAgainstReference(t *testing.T) {
	small := sfc.MustNew(sfc.Hilbert, 3, 3) // 512 voxels: cheap reference
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randRegion(rng, small, 200)
		b := randRegion(rng, small, 200)
		sa, sb := refSet(a), refSet(b)

		inter, _ := Intersect(a, b)
		uni, _ := Union(a, b)
		diff, _ := Difference(a, b)
		for id := uint64(0); id < small.Length(); id++ {
			if inter.ContainsID(id) != (sa[id] && sb[id]) {
				return false
			}
			if uni.ContainsID(id) != (sa[id] || sb[id]) {
				return false
			}
			if diff.ContainsID(id) != (sa[id] && !sb[id]) {
				return false
			}
		}
		// Contains consistency.
		wantContains := true
		for id := range sb {
			if !sa[id] {
				wantContains = false
				break
			}
		}
		if got, _ := Contains(a, b); got != wantContains {
			return false
		}
		// Overlaps consistency.
		if got, _ := Overlaps(a, b); got != !inter.Empty() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSetAlgebra property-tests algebraic identities: commutativity,
// idempotence, De Morgan, and absorption.
func TestSetAlgebra(t *testing.T) {
	small := sfc.MustNew(sfc.ZOrder, 3, 3)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randRegion(rng, small, 150)
		b := randRegion(rng, small, 150)

		ab, _ := Intersect(a, b)
		ba, _ := Intersect(b, a)
		if !ab.Equal(ba) {
			return false
		}
		uab, _ := Union(a, b)
		uba, _ := Union(b, a)
		if !uab.Equal(uba) {
			return false
		}
		aa, _ := Intersect(a, a)
		if !aa.Equal(a) {
			return false
		}
		ua, _ := Union(a, a)
		if !ua.Equal(a) {
			return false
		}
		// De Morgan: comp(a ∪ b) == comp(a) ∩ comp(b)
		ca, _ := Complement(a)
		cb, _ := Complement(b)
		left, _ := Complement(uab)
		right, _ := Intersect(ca, cb)
		if !left.Equal(right) {
			return false
		}
		// Absorption: a ∪ (a ∩ b) == a
		abs, _ := Union(a, ab)
		if !abs.Equal(a) {
			return false
		}
		// Difference identity: a \ b == a ∩ comp(b)
		d1, _ := Difference(a, b)
		d2, _ := Intersect(a, cb)
		return d1.Equal(d2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkIntersect(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	c := sfc.MustNew(sfc.Hilbert, 3, 7)
	x := randRegion(rng, c, 50000)
	y := randRegion(rng, c, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Intersect(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnion(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	c := sfc.MustNew(sfc.Hilbert, 3, 7)
	x := randRegion(rng, c, 50000)
	y := randRegion(rng, c, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Union(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
