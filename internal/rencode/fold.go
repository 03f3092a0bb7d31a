package rencode

import (
	"encoding/binary"
	"errors"
	"fmt"

	"qbism/internal/region"
	"qbism/internal/sfc"
)

// ErrCurveMismatch is wrapped by the error of a StoredFold given a row on
// another curve than its first.
var ErrCurveMismatch = errors.New("rencode: REGIONs on different curves")

// StoredFold intersects encoded REGIONs one row at a time — the n-way
// intersection of the population query (Table 4), taken over the rows as
// they are stored. Only the first row is decoded; every later one is
// intersected with the accumulator straight from its bytes by Intersect,
// so the caller can read each row into the same buffer. The zero
// StoredFold has folded no row.
type StoredFold struct {
	curve   sfc.Curve    // the first row's; nil before it
	acc     []region.Run // the intersection of the rows so far
	spare   []region.Run // where the next step writes its result
	decodes int
	probe   K3Probe       // a k³-tree row, parsed in place
	row     region.Region // a row a step decodes
}

// Intersect folds the REGION encoded in data into the intersection: a
// first row is decoded (DecodeInto), and any later one is intersected
// with the runs so far without a run list of its own:
//   - an h-naive row by one merge over its 8-byte records, each checked
//     as it is read;
//   - a k³-tree row by IntersectRunsInto on one reused probe, which
//     prunes the subtrees the runs so far miss;
//   - a γ row, and a naive row that is not strictly normalized, by
//     DecodeInto and a merge of its run list.
//
// A row's verdict is DecodeInto's: Intersect fails on the rows DecodeInto
// fails on, with the same error. A valid row on another curve than the
// first fails with an error wrapping ErrCurveMismatch. Intersect reads
// data only while it runs, so the caller may read the next row into the
// same memory. After an error the fold must not be used again.
func (f *StoredFold) Intersect(data []byte) error {
	curve, count, body, err := Header(data)
	if err != nil {
		return err
	}
	if f.curve == nil {
		if err := DecodeInto(&f.row, data, nil); err != nil {
			return err
		}
		f.curve, f.acc, f.decodes = curve, f.row.RunsView(), 1
		return nil
	}
	if !region.SameCurve(curve, f.curve) {
		if err := DecodeInto(&f.row, data, nil); err != nil {
			return err
		}
		return fmt.Errorf("%w: a %s %dD/%db row after %s %dD/%db ones", ErrCurveMismatch,
			curve.Kind(), curve.Dim(), curve.Bits(), f.curve.Kind(), f.curve.Dim(), f.curve.Bits())
	}
	if cap(f.spare) < len(f.acc) {
		// A step's result seldom outgrows the runs so far by much, so
		// both lists get a quarter more room than they hold, in one
		// allocation: the steps after take turns in them.
		room := len(f.acc) + len(f.acc)/4
		slab := make([]region.Run, 2*room)
		f.acc, f.spare = slab[room:room+copy(slab[room:], f.acc)], slab[:0:room]
	}
	var out []region.Run
	if m := methodOfCode(data[0]); m == K3Tree {
		if err := f.probe.parseBody(curve, count, body, true); err != nil {
			return err
		}
		out = f.probe.IntersectRunsInto(f.acc, f.spare)
	} else {
		merged := false
		if m == Naive {
			out, merged = mergeNaive(f.spare[:0], f.acc, count, body, curve.Length())
		}
		if !merged {
			if err := DecodeInto(&f.row, data, nil); err != nil {
				return err
			}
			out = f.row.IntersectRunsInto(f.acc, f.spare)
			f.decodes++
		}
	}
	f.acc, f.spare = out, f.acc[:0]
	return nil
}

// mergeNaive appends the intersection of the sorted, normalized runs acc
// with the count 8-byte records of a naive body to out. It checks every
// record — the ones past the last run of acc too — against a curve of n
// positions, and reports false, with out meaningless, on a body too short
// for count records or at the first record that is inverted, off the
// curve, or not strictly after the one before: each of those DecodeInto
// refuses or normalizes.
func mergeNaive(out, acc []region.Run, count uint64, body []byte, n uint64) ([]region.Run, bool) {
	if count > uint64(len(body))/8 {
		return out, false
	}
	i, next := 0, uint64(0) // next: the least Lo a record may have, two past the Hi before it
	for body = body[:8*count]; len(body) >= 8; body = body[8:] {
		rec := binary.BigEndian.Uint64(body)
		lo, hi := rec>>32, rec&(1<<32-1)
		if lo < next || lo > hi || hi >= n {
			return out, false
		}
		next = hi + 2
		for i < len(acc) && acc[i].Hi < lo {
			i++
		}
		for k := i; k < len(acc) && acc[k].Lo <= hi; k++ {
			out = append(out, region.Run{Lo: max(lo, acc[k].Lo), Hi: min(hi, acc[k].Hi)})
		}
	}
	return out, true
}

// Decodes returns how many of the rows folded so far became a run list:
// the first, and every later one Intersect had to decode.
func (f *StoredFold) Decodes() int { return f.decodes }

// Region returns the intersection of the rows folded so far — nil before
// the first — as a new Region with an exactly sized run list of its own.
func (f *StoredFold) Region() *region.Region {
	if f.curve == nil {
		return nil
	}
	var runs []region.Run
	if len(f.acc) > 0 {
		runs = make([]region.Run, len(f.acc))
		copy(runs, f.acc)
	}
	// The runs are normalized and on f.curve: the fold's own result.
	r, _ := region.FromOwnedRuns(f.curve, runs)
	return r
}
