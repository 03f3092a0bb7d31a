package region

// Delta is one element of the alternating run/gap decomposition of a
// region along its curve (the paper's "deltas"). Inside is true for
// runs (z-runs/h-runs) and false for gaps (z-gaps/h-gaps).
type Delta struct {
	Length uint64
	Inside bool
}

// Deltas returns the full alternating gap/run sequence covering the
// curve from position 0 through the end of the last run: a leading gap
// (possibly absent when the region starts at 0), then run, gap, run, ...
// ending with the final run. The trailing gap to the end of the grid is
// omitted, matching how the codecs store regions.
func (r *Region) Deltas() []Delta {
	var out []Delta
	r.EachDelta(func(d Delta) { out = append(out, d) })
	return out
}

// EachDelta passes the elements of Deltas to f in order, without
// building the list. It is kept small enough to inline, so that a
// caller's f is a direct call and inlines too: it is the inner loop of
// the delta-stream codecs.
func (r *Region) EachDelta(f func(Delta)) {
	pos := uint64(0)
	for _, run := range r.runs {
		if run.Lo > pos {
			f(Delta{Length: run.Lo - pos})
		}
		f(Delta{Length: run.Hi - run.Lo + 1, Inside: true})
		pos = run.Hi + 1
	}
}
