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
// list — gives larger ones to the server's free lists, remembering only
// their capacity, and drops every reference: no probe into a field, no
// parsed result. The site's next large read and run list take the given
// buffers back.
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
	var free freeLists
	st := newCallState(&free)
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
	const bigRuns = sdb.MaxIdleBytes/16 + 1
	if _, err := big.refill(c, make([]region.Run, 2, bigRuns)); err != nil {
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
	if big.fieldCap != sdb.MaxIdleBytes+1 || big.runsCap != bigRuns {
		t.Errorf("capacities remembered: field %d, runs %d; want %d and %d", big.fieldCap, big.runsCap, sdb.MaxIdleBytes+1, bigRuns)
	}
	if want := sdb.MaxIdleBytes + 1; free.bytes.bytes != want || free.runs.bytes != 16*bigRuns {
		t.Errorf("free lists hold %d and %d bytes, want the large field's %d and run list's %d",
			free.bytes.bytes, free.runs.bytes, want, 16*bigRuns)
	}
	for _, slot := range []*regionSlot{small, big} {
		if slot.probe.NumVoxels() != 0 || slot.probe.Curve() != nil {
			t.Error("an idle slot's probe still holds a tree")
		}
	}
	if st.obj != (parsedRegion{}) {
		t.Error("an idle call site still holds its result")
	}

	// The next build takes the large run list back, and the list is empty.
	if runs := big.runsBuf(); cap(runs) != bigRuns || len(runs) != 0 {
		t.Errorf("next run list: len %d cap %d, want an empty one of the given %d", len(runs), cap(runs), bigRuns)
	}
	if free.runs.bytes != 0 || big.runsCap != 0 {
		t.Errorf("after the take-back the run list holds %d bytes and the slot remembers %d", free.runs.bytes, big.runsCap)
	}
}
