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
// the server stores them: k³-trees. A row is never decoded: one walk of
// its bytes merges it into the intersection so far, which is kept as the
// walk's block pieces (k3Set with words) until RegionInto makes runs of it.
// The fold takes no other codec: a γ or naive row would have to become a
// k³-tree first, which costs more than decoding it and intersecting runs
// (region.IntersectN), so a caller holding such rows does that instead
// (DESIGN.md §7). A StoredFold whose caller has set Runs and Words has
// folded no row; the fold allocates none of its memory.
type StoredFold struct {
	// Runs and Words lend the fold the slabs its pieces and answer are
	// built in, and take them back (Release). The caller sets both.
	Runs  Slabs[region.Run]
	Words Slabs[uint64]

	curve  sfc.Curve            // the first row's; nil before it
	acc    k3Set                // the intersection of the rows so far
	spare  k3Set                // where the next step writes its result
	levels [k3MaxLevels]k3Level // a row's level table
	// runSlab and wordSlab hold acc and spare; answer is RegionInto's
	// runs when they did not fit spare's room.
	runSlab  []region.Run
	wordSlab []uint64
	answer   []region.Run
}

// Slabs lends memory: Get returns a slice of length n, whose elements
// the borrower overwrites before it reads them, and Put takes back one
// that Get returned, which the borrower no longer touches, and ignores a
// nil slice.
type Slabs[E any] interface {
	Get(n int) []E
	Put(b []E)
}

// Intersect folds the k³-tree encoded in data into the intersection: the
// row is parsed and checked whole (parseBody), then walked once into the
// intersection so far, a first row into the whole curve.
//
// A row of any other method fails with an error wrapping ErrCorrupt that
// names the method, and a row that fails the parse with the parser's
// error, as DecodeInto's. A valid k³-tree on another curve than the first
// row's fails with an error wrapping ErrCurveMismatch. Intersect reads
// data only while it runs, so the caller may read the next row into the
// same memory. After an error the fold must not be used again.
func (f *StoredFold) Intersect(data []byte) error {
	curve, count, body, err := Header(data)
	if err != nil {
		return err
	}
	if m := methodOfCode(data[0]); m != K3Tree {
		return fmt.Errorf("%w: a %s row; the fold takes k³-trees only", ErrCorrupt, m)
	}
	p := K3Probe{levels: f.levels[:0]}
	if err := p.parseBody(curve, count, body); err != nil {
		return err
	}
	if f.curve != nil && !region.SameCurve(curve, f.curve) {
		return fmt.Errorf("%w: a %s %dD/%db row after %s %dD/%db ones", ErrCurveMismatch,
			curve.Kind(), curve.Dim(), curve.Bits(), f.curve.Kind(), f.curve.Dim(), f.curve.Bits())
	}
	// The intersection so far is read after reserve, which may move it
	// to new slabs and hand the old ones back.
	whole, all := [1]region.Run{{Hi: curve.Length() - 1}}, [1]uint64{^uint64(0)}
	acc := k3Set{runs: whole[:], words: all[:]}
	if f.curve == nil {
		f.curve = curve
		f.reserve(p.maxPieces())
	} else {
		f.reserve(len(f.acc.runs))
		acc = f.acc
	}
	f.spare.runs, f.spare.words = f.spare.runs[:0], f.spare.words[:0]
	p.walk(acc, &f.spare)
	f.acc, f.spare = f.spare, f.acc
	return nil
}

// reserve gives the next step's result room for n pieces. A step's
// result seldom outgrows the intersection so far by much, so when spare
// is short, run and word slabs with a quarter more room than n for both
// sets take the intersection so far, and the ones it outgrew go back:
// the steps after take turns in them.
func (f *StoredFold) reserve(n int) {
	if cap(f.spare.runs) >= n && cap(f.spare.words) >= n {
		return
	}
	room := n + n/4
	runs, words := f.Runs.Get(2*room), f.Words.Get(2*room)
	f.acc = k3Set{
		runs:  runs[room : room+copy(runs[room:], f.acc.runs)],
		words: words[room : room+copy(words[room:], f.acc.words)],
	}
	f.spare = k3Set{runs: runs[:0:room], words: words[:0:room]}
	f.Runs.Put(f.runSlab)
	f.Words.Put(f.wordSlab)
	f.runSlab, f.wordSlab = runs, words
}

// Release gives the fold's slabs back to Runs and Words and leaves the
// fold as one that has folded no row, with the same Runs and Words.
// Neither the fold's results nor a Region RegionInto refilled may be read
// after.
func (f *StoredFold) Release() {
	f.Runs.Put(f.runSlab)
	f.Words.Put(f.wordSlab)
	f.Runs.Put(f.answer)
	*f = StoredFold{Runs: f.Runs, Words: f.Words}
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

// RegionInto refills r (region.Region.Refill) with the intersection of
// the rows folded so far, and reports whether there is one: before the
// first row it leaves r as it was and returns false. The runs are built
// in the room of the fold's spare pieces when they fit there, and
// otherwise in a run list of exactly their number that the fold takes
// from Runs, so r shares the fold's memory: it is valid until the fold's
// next Intersect, RegionInto or Release.
func (f *StoredFold) RegionInto(r *region.Region) bool {
	if f.curve == nil {
		return false
	}
	// A piece holds a run per set bit with its predecessor clear, less
	// one where it continues the piece before.
	n, end := 0, uint64(0) // end: one past the last position counted
	for i, p := range f.acc.runs {
		w := f.acc.words[i]
		if n += bits.OnesCount64(w &^ (w >> 1)); i > 0 && w>>63 != 0 && end == p.Lo {
			n--
		}
		if end = p.Hi + 1; w != ^uint64(0) {
			end = p.Lo + 64 - uint64(bits.TrailingZeros64(w))
		}
	}
	// The spare pieces share no memory with the intersection's, so the
	// answer written in their room overwrites none of it.
	runs := f.spare.runs[:0]
	if cap(runs) < n {
		f.Runs.Put(f.answer)
		f.answer = f.Runs.Get(n)[:0]
		runs = f.answer
	}
	for i, p := range f.acc.runs {
		if w := f.acc.words[i]; w == ^uint64(0) {
			runs = k3Emit(runs, p.Lo, p.Hi)
		} else {
			runs = k3WordRuns(runs, w, p.Lo)
		}
	}
	// The runs are normalized and on f.curve: the fold's own result.
	_ = r.Refill(f.curve, runs)
	return true
}
