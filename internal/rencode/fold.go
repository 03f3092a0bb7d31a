package rencode

import (
	"errors"
	"fmt"
	"math/bits"

	"qbism/internal/region"
	"qbism/internal/sfc"
)

// ErrCurveMismatch is wrapped by the error of a StoredFold given a row on
// another curve than its first.
var ErrCurveMismatch = errors.New("rencode: REGIONs on different curves")

// StoredFold intersects encoded REGIONs one row at a time — the n-way
// intersection of the population query (Table 4), taken over the rows as
// they are stored. A k³-tree row, the form the server stores, is never
// decoded: one walk of its bytes merges it into the intersection so far,
// which is kept as the walk's block pieces (k3Set with words) until
// Region makes runs of it. The zero StoredFold has folded no row.
type StoredFold struct {
	curve   sfc.Curve // the first row's; nil before it
	acc     k3Set     // the intersection of the rows so far
	spare   k3Set     // where the next step writes its result
	decodes int
	levels  [k3MaxLevels]k3Level // a row's level table
	row     region.Region        // a row of another codec, decoded
}

// Intersect folds the REGION encoded in data into the intersection. A
// k³-tree row is parsed and checked whole (parseBody), then walked once
// into the intersection so far, a first row into the whole curve. A row
// of another codec is decoded (DecodeInto) and walked as the k³-tree it
// encodes to.
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
	if f.curve != nil && !region.SameCurve(curve, f.curve) {
		if err := DecodeInto(&f.row, data, nil); err != nil {
			return err
		}
		return fmt.Errorf("%w: a %s %dD/%db row after %s %dD/%db ones", ErrCurveMismatch,
			curve.Kind(), curve.Dim(), curve.Bits(), f.curve.Kind(), f.curve.Dim(), f.curve.Bits())
	}
	if methodOfCode(data[0]) != K3Tree {
		if err := DecodeInto(&f.row, data, nil); err != nil {
			return err
		}
		f.decodes++
		if data, err = Encode(K3Tree, &f.row); err != nil {
			return err
		}
		count, body = f.row.NumVoxels(), data[HeaderLen:]
	}
	p := K3Probe{levels: f.levels[:0]}
	if err := p.parseBody(curve, count, body); err != nil {
		return err
	}
	acc := f.acc
	if f.curve == nil {
		f.curve = curve
		f.reserve(p.maxPieces())
		whole, all := [1]region.Run{{Hi: curve.Length() - 1}}, [1]uint64{^uint64(0)}
		acc = k3Set{runs: whole[:], words: all[:]}
	} else {
		f.reserve(len(f.acc.runs))
	}
	f.spare.runs, f.spare.words = f.spare.runs[:0], f.spare.words[:0]
	p.walk(acc, &f.spare)
	f.acc, f.spare = f.spare, f.acc
	return nil
}

// reserve gives the next step's result room for n pieces. A step's
// result seldom outgrows the intersection so far by much, so when spare
// is short, new runs and words with a quarter more room than n for both
// sets take the intersection so far: the steps after take turns in them.
func (f *StoredFold) reserve(n int) {
	if cap(f.spare.runs) >= n && cap(f.spare.words) >= n {
		return
	}
	room := n + n/4
	runs, words := make([]region.Run, 2*room), make([]uint64, 2*room)
	f.acc = k3Set{
		runs:  runs[room : room+copy(runs[room:], f.acc.runs)],
		words: words[room : room+copy(words[room:], f.acc.words)],
	}
	f.spare = k3Set{runs: runs[:0:room], words: words[:0:room]}
}

// maxPieces bounds the pieces walk makes of the tree and the whole
// curve: one per streak of full siblings above the blocks, and one per
// mixed block — a mixed node of the last level but one, or the root of a
// tree of at most two levels.
func (p *K3Probe) maxPieces() int {
	n := 1
	for i := range min(p.bits-2, len(p.levels)) {
		n += k3Streaks(p.levels[i].f, p.degree)
	}
	if i := p.bits - 2; i >= 0 && i < len(p.levels) {
		n += p.levels[i].n / p.degree
	}
	return n
}

// Decodes returns how many of the rows folded so far became a run list:
// those not a k³-tree.
func (f *StoredFold) Decodes() int { return f.decodes }

// Region returns the intersection of the rows folded so far — nil before
// the first — as a new Region with an exactly sized run list of its own.
func (f *StoredFold) Region() *region.Region {
	if f.curve == nil {
		return nil
	}
	// A piece holds a run per set bit with its predecessor clear, less
	// one where it continues the piece before.
	n, end := 0, uint64(0) // end: one past the last position counted
	for i, r := range f.acc.runs {
		w := f.acc.words[i]
		if n += bits.OnesCount64(w &^ (w >> 1)); i > 0 && w>>63 != 0 && end == r.Lo {
			n--
		}
		if end = r.Hi + 1; w != ^uint64(0) {
			end = r.Lo + 64 - uint64(bits.TrailingZeros64(w))
		}
	}
	var runs []region.Run
	if n > 0 {
		runs = make([]region.Run, 0, n)
		for i, r := range f.acc.runs {
			if w := f.acc.words[i]; w == ^uint64(0) {
				runs = k3Emit(runs, r.Lo, r.Hi)
			} else {
				runs = k3WordRuns(runs, w, r.Lo)
			}
		}
	}
	// The runs are normalized and on f.curve: the fold's own result.
	r, _ := region.FromOwnedRuns(f.curve, runs)
	return r
}
