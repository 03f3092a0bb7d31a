package medserver

import (
	"testing"

	"qbism/internal/region"
	"qbism/internal/rencode"
	"qbism/internal/sdb"
	"qbism/internal/sfc"
)

// TestCallStateReset: when its tree goes idle a spatial call site keeps
// the capacity of the buffers up to sdb.MaxIdleBytes — a field, a run
// list — and releases larger ones, and it drops every reference: no
// probe into a field, no parsed result.
func TestCallStateReset(t *testing.T) {
	c := sfc.MustNew(sfc.Hilbert, 3, 4)
	r, err := region.FromRuns(c, []region.Run{{Lo: 3, Hi: 9}, {Lo: 100, Hi: 300}})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := rencode.Encode(rencode.K3Tree, r)
	if err != nil {
		t.Fatal(err)
	}
	var st callState
	small, big := st.arg(0), st.arg(1)
	for _, slot := range []*regionSlot{small, big} {
		if _, err := slot.parse(blob); err != nil {
			t.Fatal(err)
		}
	}
	small.field = append(make([]byte, 0, 1<<10), blob...)
	big.field = make([]byte, sdb.MaxIdleBytes+1)
	if _, err := small.refill(c, make([]region.Run, 2, 16)); err != nil {
		t.Fatal(err)
	}
	if _, err := big.refill(c, make([]region.Run, 2, sdb.MaxIdleBytes/16+1)); err != nil {
		t.Fatal(err)
	}
	st.obj = parsedRegion{q: &small.reg}

	st.Reset()
	if cap(small.field) != 1<<10 || cap(small.reg.RunsView()) != 16 {
		t.Errorf("small buffers not kept: field %d, runs %d", cap(small.field), cap(small.reg.RunsView()))
	}
	if big.field != nil || big.reg.RunsView() != nil {
		t.Errorf("buffers over sdb.MaxIdleBytes kept: field %d, runs %d", cap(big.field), cap(big.reg.RunsView()))
	}
	for _, slot := range []*regionSlot{small, big} {
		if slot.probe.NumVoxels() != 0 || slot.probe.Curve() != nil {
			t.Error("an idle slot's probe still holds a tree")
		}
	}
	if st.obj != (parsedRegion{}) {
		t.Error("an idle call site still holds its result")
	}
}
