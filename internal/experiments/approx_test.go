package experiments

import (
	"testing"

	"qbism/internal/region"
	"qbism/internal/sfc"
)

var (
	h3 = sfc.MustNew(sfc.Hilbert, 3, 5)
	z3 = sfc.MustNew(sfc.ZOrder, 3, 5)
)

func mustRuns(t *testing.T, c sfc.Curve, runs ...region.Run) *region.Region {
	t.Helper()
	r, err := region.FromRuns(c, runs)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestMergeGaps(t *testing.T) {
	r := mustRuns(t, h3, region.Run{Lo: 0, Hi: 4}, region.Run{Lo: 7, Hi: 9}, region.Run{Lo: 20, Hi: 22})
	merged := func(mingap uint64) *region.Region {
		m, err := MergeGaps(r, mingap)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// Gaps: 2 (ids 5-6) and 10 (ids 10-19).
	m := merged(3)
	if runs := m.Runs(); len(runs) != 2 || runs[0] != (region.Run{Lo: 0, Hi: 9}) {
		t.Errorf("MergeGaps(3) = %v", runs)
	}
	if runs := merged(11).Runs(); len(runs) != 1 || runs[0] != (region.Run{Lo: 0, Hi: 22}) {
		t.Errorf("MergeGaps(11) = %v", runs)
	}
	if merged(1) != r || merged(0) != r {
		t.Error("mingap<=1 should return its region")
	}
	// Result is a superset.
	if ok, _ := region.Contains(m, r); !ok {
		t.Error("merged region does not contain original")
	}
}

func TestApproxError(t *testing.T) {
	r := mustRuns(t, h3, region.Run{Lo: 0, Hi: 7})
	a := mustRuns(t, h3, region.Run{Lo: 0, Hi: 15})
	extra, inflation, err := ApproxError(r, a)
	if err != nil {
		t.Fatal(err)
	}
	if extra != 8 || inflation != 2.0 {
		t.Errorf("ApproxError = %d, %v; want 8, 2.0", extra, inflation)
	}
	extra, inflation, err = ApproxError(region.Empty(h3), a)
	if err != nil || extra != 16 || inflation != 0 {
		t.Errorf("empty exact: %d %v %v", extra, inflation, err)
	}
	if _, _, err := ApproxError(region.Full(h3), region.Full(z3)); err == nil {
		t.Error("curve mismatch accepted")
	}
}
