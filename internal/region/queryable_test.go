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

// TestRangeProbesAgainstScan checks AllInRange against the
// per-id scan for random regions and intervals, including the
// degenerate inverted interval.
func TestRangeProbesAgainstScan(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	c := sfc.MustNew(sfc.Hilbert, 3, 3)
	n := c.Length()
	for iter := 0; iter < 50; iter++ {
		r := genQ(t, rng, c, rng.Intn(10))
		for probe := 0; probe < 60; probe++ {
			lo := rng.Uint64() % n
			hi := lo + rng.Uint64()%40
			if hi >= n {
				hi = n - 1
			}
			all := true
			for id := lo; id <= hi; id++ {
				if !r.ContainsID(id) {
					all = false
				}
			}
			if got := r.AllInRange(lo, hi); got != all {
				t.Fatalf("AllInRange(%d,%d) = %v, scan %v (runs %v)", lo, hi, got, all, r.Runs())
			}
		}
		if !r.AllInRange(9, 3) {
			t.Fatal("inverted interval answers wrong")
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
