package region

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"qbism/internal/sfc"
)

var (
	h2 = sfc.MustNew(sfc.Hilbert, 2, 2)
	z2 = sfc.MustNew(sfc.ZOrder, 2, 2)
	h3 = sfc.MustNew(sfc.Hilbert, 3, 5)
	z3 = sfc.MustNew(sfc.ZOrder, 3, 5)
)

// paperRegion returns the shaded 2D REGION of Figure 3 on the given
// curve. Its z-ids are {1, 4, 5, 6, 7, 12, 13} (Table 1).
func paperRegion(t *testing.T, c sfc.Curve) *Region {
	t.Helper()
	pts := make([]sfc.Point, 0, 7)
	for _, zid := range []uint64{1, 4, 5, 6, 7, 12, 13} {
		pts = append(pts, z2.Point(zid))
	}
	r, err := FromPoints(c, pts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPaperTable1 reproduces every row of Table 1 (Z-curve encodings of
// the Figure 3 REGION).
func TestPaperTable1(t *testing.T) {
	r := paperRegion(t, z2)
	wantRuns := []Run{{1, 1}, {4, 7}, {12, 13}}
	if got := r.Runs(); len(got) != len(wantRuns) {
		t.Fatalf("z-runs = %v, want %v", got, wantRuns)
	} else {
		for i := range got {
			if got[i] != wantRuns[i] {
				t.Errorf("z-run[%d] = %v, want %v", i, got[i], wantRuns[i])
			}
		}
	}
	wantOblong := []Octant{{1, 0}, {4, 2}, {12, 1}}
	checkOctants(t, "oblong", r.OblongOctants(), wantOblong)
	wantOct := []Octant{{1, 0}, {4, 2}, {12, 0}, {13, 0}}
	checkOctants(t, "octants", r.Octants(), wantOct)
}

// TestPaperTable2 reproduces every row of Table 2 (Hilbert-curve
// encodings of the same REGION): a single h-run <3,9>.
func TestPaperTable2(t *testing.T) {
	r := paperRegion(t, h2)
	if got := r.Runs(); len(got) != 1 || got[0] != (Run{3, 9}) {
		t.Fatalf("h-runs = %v, want [<3,9>]", got)
	}
	wantOblong := []Octant{{3, 0}, {4, 2}, {8, 1}}
	checkOctants(t, "oblong", r.OblongOctants(), wantOblong)
	wantOct := []Octant{{3, 0}, {4, 2}, {8, 0}, {9, 0}}
	checkOctants(t, "octants", r.Octants(), wantOct)
}

func checkOctants(t *testing.T, name string, got, want []Octant) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s = %v, want %v", name, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s[%d] = %v, want %v", name, i, got[i], want[i])
		}
	}
}

func TestFromRunsNormalization(t *testing.T) {
	r, err := FromRuns(h3, []Run{{10, 20}, {5, 12}, {21, 21}, {30, 31}})
	if err != nil {
		t.Fatal(err)
	}
	want := []Run{{5, 21}, {30, 31}}
	got := r.Runs()
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("normalized runs = %v, want %v", got, want)
	}
	if r.NumVoxels() != 17+2 {
		t.Errorf("NumVoxels = %d, want 19", r.NumVoxels())
	}
}

func TestFromRunsErrors(t *testing.T) {
	if _, err := FromRuns(h2, []Run{{5, 4}}); err == nil {
		t.Error("inverted run accepted")
	}
	if _, err := FromRuns(h2, []Run{{0, 16}}); err == nil {
		t.Error("run past curve length accepted")
	}
	if _, err := FromIDs(h2, []uint64{16}); err == nil {
		t.Error("id past curve length accepted")
	}
	if _, err := FromIDs(h2, []uint64{3, 16}); err == nil {
		t.Error("late id past curve length accepted")
	}
}

func TestFromIDsDuplicatesAndOrder(t *testing.T) {
	r, err := FromIDs(h2, []uint64{7, 3, 3, 5, 4, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Runs(); len(got) != 1 || got[0] != (Run{3, 7}) {
		t.Errorf("runs = %v, want [<3,7>]", got)
	}
}

func TestFromIDsEmpty(t *testing.T) {
	r, err := FromIDs(h2, nil)
	if err != nil || !r.Empty() {
		t.Errorf("empty FromIDs: %v, %v", r, err)
	}
}

func TestContainsID(t *testing.T) {
	r, _ := FromRuns(h3, []Run{{10, 20}, {40, 40}})
	for _, id := range []uint64{10, 15, 20, 40} {
		if !r.ContainsID(id) {
			t.Errorf("ContainsID(%d) = false", id)
		}
	}
	for _, id := range []uint64{0, 9, 21, 39, 41, 1000} {
		if r.ContainsID(id) {
			t.Errorf("ContainsID(%d) = true", id)
		}
	}
}

func TestFullAndEmpty(t *testing.T) {
	f := Full(h2)
	if f.NumVoxels() != 16 || f.NumRuns() != 1 {
		t.Errorf("Full: %v", f)
	}
	e := Empty(h2)
	if !e.Empty() || e.NumVoxels() != 0 {
		t.Errorf("Empty: %v", e)
	}
	if f.String() == "" || (Run{1, 2}).String() != "<1,2>" || (Octant{1, 2}).String() != "<1,2>" {
		t.Error("String methods broken")
	}
}

func TestForEachEarlyStop(t *testing.T) {
	r, _ := FromRuns(h3, []Run{{0, 5}, {10, 15}})
	n := 0
	r.ForEachID(func(uint64) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("early stop visited %d ids", n)
	}
	n = 0
	r.ForEachPoint(func(sfc.Point) bool { n++; return false })
	if n != 1 {
		t.Errorf("point early stop visited %d", n)
	}
}

func TestBounds(t *testing.T) {
	b := Box{Min: sfc.Pt(3, 4, 5), Max: sfc.Pt(10, 11, 12)}
	r, err := FromBox(h3, b)
	if err != nil {
		t.Fatal(err)
	}
	min, max, ok := r.Bounds()
	if !ok || min != b.Min || max != b.Max {
		t.Errorf("Bounds = %v..%v ok=%v, want %v..%v", min, max, ok, b.Min, b.Max)
	}
	if _, _, ok := Empty(h3).Bounds(); ok {
		t.Error("empty region reported bounds")
	}
}

func TestRecode(t *testing.T) {
	r := paperRegion(t, h2)
	rz, err := r.Recode(z2)
	if err != nil {
		t.Fatal(err)
	}
	if rz.NumRuns() != 3 || rz.NumVoxels() != 7 {
		t.Errorf("recoded: %v", rz)
	}
	back, err := rz.Recode(h2)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(r) {
		t.Error("recode round trip changed the voxel set")
	}
	// Same-curve recode returns the receiver.
	same, _ := r.Recode(h2)
	if same != r {
		t.Error("same-curve recode should be identity")
	}
	// Mismatched grids fail.
	if _, err := r.Recode(h3); err == nil {
		t.Error("recode to different grid accepted")
	}
}

// TestRecodePreservesVoxels is a property test: any set of ids recoded
// h->z->h comes back identical.
func TestRecodePreservesVoxels(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200)
		ids := make([]uint64, n)
		for i := range ids {
			ids[i] = rng.Uint64() % h3.Length()
		}
		r, err := FromIDs(h3, ids)
		if err != nil {
			return false
		}
		rz, err := r.Recode(z3)
		if err != nil {
			return false
		}
		back, err := rz.Recode(h3)
		if err != nil {
			return false
		}
		return back.Equal(r) && rz.NumVoxels() == r.NumVoxels()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFromPredicate(t *testing.T) {
	// Plane x == 0 on the 4x4 grid.
	r := FromPredicate(h2, func(p sfc.Point) bool { return p.X == 0 })
	if r.NumVoxels() != 4 {
		t.Errorf("plane voxels = %d, want 4", r.NumVoxels())
	}
	for y := uint32(0); y < 4; y++ {
		if !r.ContainsPoint(sfc.Pt(0, y, 0)) {
			t.Errorf("missing (0,%d)", y)
		}
	}
}

// TestOctantsCoverExactly: property test that both decompositions
// reconstruct the region exactly and are aligned.
func TestOctantsCoverExactly(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(100) + 1
		ids := make([]uint64, n)
		for i := range ids {
			ids[i] = rng.Uint64() % h3.Length()
		}
		r, _ := FromIDs(h3, ids)
		for _, octs := range [][]Octant{r.Octants(), r.OblongOctants()} {
			var total uint64
			for _, o := range octs {
				if o.ID%o.Len() != 0 {
					return false // misaligned
				}
				total += o.Len()
			}
			if total != r.NumVoxels() {
				return false
			}
			back, err := FromOctantList(h3, octs)
			if err != nil || !back.Equal(r) {
				return false
			}
		}
		// Regular octants have rank divisible by dim.
		for _, o := range r.Octants() {
			if int(o.Rank)%3 != 0 {
				return false
			}
		}
		// Piece-count ordering from the paper: #runs <= #oblong <= #octants.
		if !(r.NumRuns() <= len(r.OblongOctants()) && len(r.OblongOctants()) <= len(r.Octants())) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFromOctantListErrors(t *testing.T) {
	if _, err := FromOctantList(h2, []Octant{{1, 1}}); err == nil {
		t.Error("misaligned octant accepted")
	}
	if _, err := FromOctantList(h2, []Octant{{0, 5}}); err == nil {
		t.Error("oversized octant accepted")
	}
}

func TestPackOctant(t *testing.T) {
	o := Octant{ID: (1 << 27) - 8, Rank: 3}
	v, err := PackOctant(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := UnpackOctant(v); got != o {
		t.Errorf("round trip = %v, want %v", got, o)
	}
	if _, err := PackOctant(Octant{ID: 1 << 27}); err == nil {
		t.Error("27-bit overflow accepted")
	}
	if _, err := PackOctant(Octant{ID: 0, Rank: 28}); err == nil {
		t.Error("rank overflow accepted")
	}
}

func TestDeltas(t *testing.T) {
	r, _ := FromRuns(h2, []Run{{1, 1}, {4, 7}, {12, 13}})
	got := r.Deltas()
	want := []Delta{
		{1, false}, {1, true}, {2, false}, {4, true}, {4, false}, {2, true},
	}
	if len(got) != len(want) {
		t.Fatalf("deltas = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("delta[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Region starting at 0 has no leading gap.
	r0, _ := FromRuns(h2, []Run{{0, 2}})
	if d := r0.Deltas(); len(d) != 1 || d[0] != (Delta{3, true}) {
		t.Errorf("deltas of [0,2] = %v", d)
	}
	if d := Empty(h2).Deltas(); len(d) != 0 {
		t.Errorf("deltas of empty = %v", d)
	}
}

// oracleFromRuns is FromRuns as it stood before the adopting
// constructor: copy, validate, always sort, merge. FromRuns and
// FromOwnedRuns must return the same region or the same error.
func oracleFromRuns(c sfc.Curve, runs []Run) (*Region, error) {
	rs := make([]Run, 0, len(runs))
	for _, run := range runs {
		if run.Lo > run.Hi {
			return nil, fmt.Errorf("region: invalid run %v (lo > hi)", run)
		}
		if run.Hi >= c.Length() {
			return nil, fmt.Errorf("region: run %v exceeds curve length %d", run, c.Length())
		}
		rs = append(rs, run)
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].Lo < rs[j].Lo })
	return &Region{curve: c, runs: mergeSorted(rs)}, nil
}

// TestFromRunsMatchesOracle: run lists that are normalized, unsorted,
// overlapping, adjacent, duplicated, inverted or out of range give the
// region or the error they always gave — through FromRuns, which must
// leave its input alone, and through FromOwnedRuns, which may not.
func TestFromRunsMatchesOracle(t *testing.T) {
	n := h3.Length()
	cases := map[string][]Run{
		"nil":                nil,
		"empty":              {},
		"one":                {{7, 9}},
		"normalized":         {{0, 3}, {5, 5}, {7, 20}, {n - 1, n - 1}},
		"unsorted":           {{30, 31}, {5, 12}, {20, 22}},
		"overlapping":        {{5, 12}, {10, 20}, {30, 31}},
		"nested":             {{5, 40}, {10, 20}, {50, 51}},
		"adjacent":           {{5, 9}, {10, 20}, {21, 21}},
		"duplicate":          {{5, 9}, {5, 9}},
		"equal lo":           {{5, 9}, {5, 30}, {5, 6}},
		"inverted":           {{3, 4}, {9, 8}},
		"inverted first":     {{9, 8}, {0, n}},
		"out of range":       {{3, 4}, {n - 1, n}},
		"far out of range":   {{1 << 63, 1<<64 - 1}},
		"unsorted then bad":  {{30, 31}, {5, 12}, {6, 2}},
		"whole curve pieces": {{n / 2, n - 1}, {0, n/2 - 1}},
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 400; i++ {
		runs := make([]Run, rng.Intn(12))
		for j := range runs {
			lo := rng.Uint64() % (n + 2)
			runs[j] = Run{lo, lo + rng.Uint64()%9 - uint64(rng.Intn(9)/8)}
		}
		if rng.Intn(3) == 0 { // a sorted list, sometimes with touching runs
			sort.Slice(runs, func(a, b int) bool { return runs[a].Lo < runs[b].Lo })
		}
		cases[fmt.Sprintf("random %d", i)] = runs
	}
	for name, runs := range cases {
		want, wantErr := oracleFromRuns(h3, runs)
		input := slices.Clone(runs)
		for ctor, build := range map[string]func() (*Region, error){
			"FromRuns": func() (*Region, error) { return FromRuns(h3, input) },
			"FromOwnedRuns": func() (*Region, error) {
				return FromOwnedRuns(h3, slices.Clone(runs))
			},
		} {
			got, err := build()
			switch {
			case (err == nil) != (wantErr == nil):
				t.Errorf("%s %s: err %v, oracle %v", ctor, name, err, wantErr)
			case err != nil:
				if err.Error() != wantErr.Error() {
					t.Errorf("%s %s: err %q, oracle %q", ctor, name, err, wantErr)
				}
			case !got.Equal(want):
				t.Errorf("%s %s: runs %v, oracle %v", ctor, name, got.Runs(), want.Runs())
			}
		}
		if !slices.Equal(input, runs) {
			t.Errorf("FromRuns %s: input modified: %v, was %v", name, input, runs)
		}
	}
}

// TestRunListOwnership: FromRuns does not keep the caller's slice,
// FromOwnedRuns does keep a normalized one, and neither Runs nor a
// change to its result can reach the region's own list.
func TestRunListOwnership(t *testing.T) {
	in := []Run{{2, 4}, {8, 9}}
	copied, err := FromRuns(h3, in)
	if err != nil {
		t.Fatal(err)
	}
	in[0] = Run{0, 0}
	if got := copied.Runs(); got[0] != (Run{2, 4}) {
		t.Errorf("FromRuns aliases its input: %v", got)
	}

	owned := []Run{{2, 4}, {8, 9}}
	adopted, err := FromOwnedRuns(h3, owned)
	if err != nil {
		t.Fatal(err)
	}
	if view := adopted.RunsView(); &view[0] != &owned[0] {
		t.Error("FromOwnedRuns copied a normalized list")
	}
	mine := adopted.Runs()
	mine[0] = Run{100, 200}
	if got := adopted.RunsView(); got[0] != (Run{2, 4}) || adopted.NumVoxels() != 5 {
		t.Errorf("a change to Runs() reached the region: %v", got)
	}
	if again := adopted.Runs(); &again[0] == &mine[0] || again[0] != (Run{2, 4}) {
		t.Errorf("Runs() handed out shared storage: %v", again)
	}
}
