package region

import (
	"math/rand"
	"testing"

	"qbism/internal/sfc"
)

func genQ(t *testing.T, rng *rand.Rand, c sfc.Curve, nruns int) *Region {
	t.Helper()
	n := c.Length()
	var runs []Run
	for i := 0; i < nruns; i++ {
		lo := rng.Uint64() % n
		hi := lo + rng.Uint64()%24
		if hi >= n {
			hi = n - 1
		}
		runs = append(runs, Run{Lo: lo, Hi: hi})
	}
	r, err := FromRuns(c, runs)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRangeProbesAgainstScan checks CoversRuns against the per-id scan
// for random regions on 3D and 2D curves: one interval at a time, random
// run lists, and pieces of the region's own runs (covered), besides the
// empty list (vacuously covered).
func TestRangeProbesAgainstScan(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, c := range []sfc.Curve{sfc.MustNew(sfc.Hilbert, 3, 3), sfc.MustNew(sfc.ZOrder, 2, 4)} {
		for iter := 0; iter < 50; iter++ {
			r := genQ(t, rng, c, rng.Intn(10))
			check := func(runs []Run) {
				t.Helper()
				all := true
				for _, run := range runs {
					for id := run.Lo; id <= run.Hi; id++ {
						all = all && r.ContainsID(id)
					}
				}
				if got := r.CoversRuns(runs); got != all {
					t.Fatalf("CoversRuns(%v) = %v, scan %v (runs %v)", runs, got, all, r.Runs())
				}
			}
			for probe := 0; probe < 60; probe++ {
				lo := rng.Uint64() % c.Length()
				check([]Run{{Lo: lo, Hi: min(lo+rng.Uint64()%40, c.Length()-1)}})
				check(genQ(t, rng, c, rng.Intn(4)).runs)
			}
			var pieces []Run
			for _, run := range r.runs {
				lo := run.Lo + rng.Uint64()%(run.Hi-run.Lo+1)
				pieces = append(pieces, Run{Lo: lo, Hi: lo + rng.Uint64()%(run.Hi-lo+1)})
			}
			check(pieces)
			if !r.CoversRuns(nil) {
				t.Fatal("the empty run list answers wrong")
			}
		}
	}
}

// TestQueryableOpsMatchSetOps: ContainsQ/IntersectQ with a
// *Region probe must agree exactly with the run-list set operators.
func TestQueryableOpsMatchSetOps(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	c := sfc.MustNew(sfc.ZOrder, 3, 3)
	for iter := 0; iter < 80; iter++ {
		a := genQ(t, rng, c, rng.Intn(12))
		b := genQ(t, rng, c, rng.Intn(12))

		wantContains, err := Contains(a, b)
		if err != nil {
			t.Fatal(err)
		}
		gotContains, err := ContainsQ(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if gotContains != wantContains {
			t.Fatalf("ContainsQ = %v, Contains = %v", gotContains, wantContains)
		}

		wantInt, err := Intersect(a, b)
		if err != nil {
			t.Fatal(err)
		}
		gotInt, err := IntersectQ(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !gotInt.Equal(wantInt) {
			t.Fatalf("IntersectQ differs from Intersect:\n%v\n%v", gotInt, wantInt)
		}

		// IntersectRunsInto against the other region's run list directly.
		runs := a.IntersectRunsInto(b.Runs(), nil)
		want := wantInt.Runs()
		if len(runs) != len(want) {
			t.Fatalf("IntersectRunsInto %d runs, Intersect %d", len(runs), len(want))
		}
		for i := range runs {
			if runs[i] != want[i] {
				t.Fatalf("IntersectRunsInto run %d = %v, want %v", i, runs[i], want[i])
			}
		}
	}
}

func TestQueryableOpsCurveMismatch(t *testing.T) {
	a := Full(sfc.MustNew(sfc.Hilbert, 3, 3))
	b := Full(sfc.MustNew(sfc.ZOrder, 3, 3))
	if _, err := ContainsQ(a, b); err == nil {
		t.Error("ContainsQ accepted mismatched curves")
	}
	if _, err := IntersectQ(a, b); err == nil {
		t.Error("IntersectQ accepted mismatched curves")
	}
}
