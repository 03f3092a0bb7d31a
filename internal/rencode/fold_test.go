package rencode

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"qbism/internal/region"
	"qbism/internal/sfc"
)

// checkFold holds a StoredFold over rows to the decoded oracle: each row
// decoded in turn, a row of any method but the k³-tree refused, a row on
// another curve than the first refused, and region.IntersectN of them
// all. The fold must fail at the row the oracle fails at: on a row with a
// valid header that is not a k³-tree, with an ErrCorrupt naming its
// method; on a row Decode refuses, with Decode's very error (ErrCorrupt
// or not); on another curve, with an ErrCurveMismatch. Otherwise its
// answer must be IntersectN's, in a run list nothing of the fold's
// shares.
func checkFold(t *testing.T, rows [][]byte) {
	t.Helper()
	if len(rows) == 0 {
		return
	}
	var f StoredFold
	var decoded []*region.Region
	for i, row := range rows {
		dec, derr := Decode(row)
		_, _, _, herr := Header(row)
		var want error
		switch {
		case herr == nil && methodOfCode(row[0]) != K3Tree:
			want = errNotK3
		case derr != nil:
			want = derr
		case i > 0 && !region.SameCurve(dec.Curve(), decoded[0].Curve()):
			want = ErrCurveMismatch
		}
		err := f.Intersect(row)
		switch {
		case want == nil && err != nil:
			t.Fatalf("row %d of %d: the fold refused a k³-tree that decodes: %v", i, len(rows), err)
		case want == nil:
			decoded = append(decoded, dec)
			continue
		case err == nil:
			t.Fatalf("row %d of %d: the fold accepted what the oracle refuses: %v", i, len(rows), want)
		case want == errNotK3:
			if m := methodOfCode(row[0]); !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrCurveMismatch) || !strings.Contains(err.Error(), m.String()) {
				t.Fatalf("row %d, a %s row: %v, want an ErrCorrupt naming the method", i, m, err)
			}
		case want == ErrCurveMismatch:
			if !errors.Is(err, ErrCurveMismatch) || errors.Is(err, ErrCorrupt) {
				t.Fatalf("row %d on another curve: %v, want an ErrCurveMismatch", i, err)
			}
		case err.Error() != want.Error() || errors.Is(err, ErrCorrupt) != errors.Is(want, ErrCorrupt):
			t.Fatalf("row %d: the fold's error %q, Decode's %q", i, err, want)
		}
		return
	}
	want, err := region.IntersectN(decoded...)
	if err != nil {
		t.Fatal(err)
	}
	got := f.Region()
	if !got.Equal(want) {
		t.Fatalf("%d rows: the fold gives %v, IntersectN %v", len(rows), got.RunsView(), want.RunsView())
	}
	// The answer is the caller's: no later step may write into it.
	if runs := got.RunsView(); len(runs) > 0 {
		for _, buf := range [][]region.Run{f.acc.runs[:cap(f.acc.runs)], f.spare.runs[:cap(f.spare.runs)]} {
			for i := range buf {
				if &buf[i] == &runs[0] {
					t.Fatalf("%d rows: the answer's runs are the fold's own", len(rows))
				}
			}
		}
	}
}

// errNotK3 marks, in checkFold's oracle, a row the fold must refuse for
// its method alone.
var errNotK3 = errors.New("not a k³-tree")

// foldRegions builds a set of 1–5 operands on c for the differential
// test and the fuzz target: random, empty, full, a copy of the one
// before, a subset of it, and a set disjoint from it.
func foldRegions(rng *rand.Rand, c sfc.Curve) []*region.Region {
	out := []*region.Region{genOnCurve(rng, c)}
	for range rng.Intn(5) {
		prev := out[len(out)-1]
		var r *region.Region
		var err error
		switch rng.Intn(6) {
		case 0:
			r = genOnCurve(rng, c)
		case 1:
			r = region.Empty(c)
		case 2:
			r = region.Full(c)
		case 3:
			r = prev
		case 4:
			r, err = region.Intersect(prev, genOnCurve(rng, c))
		default:
			r, err = region.Difference(genOnCurve(rng, c), prev)
		}
		if err != nil {
			panic(err)
		}
		out = append(out, r)
	}
	return out
}

// foldRows encodes each region as a k³-tree row, the stored form, or
// now and then as a γ row or in any served codec — rows the fold must
// refuse — dropping what a codec cannot hold.
func foldRows(rng *rand.Rand, regions []*region.Region) [][]byte {
	var rows [][]byte
	for _, r := range regions {
		m := K3Tree
		switch rng.Intn(5) {
		case 0:
			m = Elias
		case 1:
			m = Methods[rng.Intn(len(Methods))]
		}
		if row, err := Encode(m, r); err == nil {
			rows = append(rows, row)
		}
	}
	return rows
}

// naiveRow writes runs as a naive row on c exactly as listed, in order,
// overlapping or inverted as they come, under a header counting count.
func naiveRow(c sfc.Curve, count uint64, runs ...region.Run) []byte {
	row := []byte{Naive.code(), byte(c.Kind()), byte(c.Dim()), byte(c.Bits()),
		byte(count >> 56), byte(count >> 48), byte(count >> 40), byte(count >> 32),
		byte(count >> 24), byte(count >> 16), byte(count >> 8), byte(count)}
	for _, r := range runs {
		row = append(row, byte(r.Lo>>24), byte(r.Lo>>16), byte(r.Lo>>8), byte(r.Lo),
			byte(r.Hi>>24), byte(r.Hi>>16), byte(r.Hi>>8), byte(r.Hi))
	}
	return row
}

// encodeRuns encodes the region of runs on c with m.
func encodeRuns(t testing.TB, m Method, c sfc.Curve, runs ...region.Run) []byte {
	t.Helper()
	r, err := region.FromRuns(c, runs)
	if err != nil {
		t.Fatal(err)
	}
	row, err := Encode(m, r)
	if err != nil {
		t.Fatal(err)
	}
	return row
}

// TestIntersectStoredMatchesIntersectN is the fold's differential test:
// random operand sets of every shape foldRegions makes, on 2D and 3D
// curves, stored as k³-tree rows, and the same sets with γ and naive rows
// mixed in, which the fold must refuse; then the rows the walk must skip
// past, stop in or refuse — runs so far that end inside a mixed subtree,
// that empty partway through a row, or that miss whole subtrees between
// their runs; corrupt, truncated and cut k³-tree rows; rows on another
// curve; and, after k³-tree rows, γ, naive and other-codec rows, well
// formed or not, each refused for its method.
func TestIntersectStoredMatchesIntersectN(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	curves := []sfc.Curve{sfc.MustNew(sfc.Hilbert, 3, 4), sfc.MustNew(sfc.Hilbert, 2, 5), sfc.MustNew(sfc.ZOrder, 3, 3)}
	// Trees of one and two levels are one block each.
	small := []sfc.Curve{sfc.MustNew(sfc.Hilbert, 3, 1), sfc.MustNew(sfc.Hilbert, 2, 2), sfc.MustNew(sfc.ZOrder, 3, 2)}
	enc := func(m Method, r *region.Region) []byte {
		row, err := Encode(m, r)
		if err != nil {
			t.Fatal(err)
		}
		return row
	}
	for _, c := range append(small, curves...) {
		for range 200 {
			regions := foldRegions(rng, c)
			checkFold(t, foldRows(rng, regions))
			rows := make([][]byte, len(regions))
			for i, r := range regions {
				rows[i] = enc(K3Tree, r)
			}
			checkFold(t, rows)
		}
	}

	c := curves[0]
	r := genOnCurve(rng, c)
	naive, k3, gamma := enc(Naive, r), enc(K3Tree, r), enc(Elias, r)
	full, empty, emptyGamma := enc(K3Tree, region.Full(c)), enc(K3Tree, region.Empty(c)), enc(Elias, region.Empty(c))
	otherRegion := genOnCurve(rng, curves[1])
	other, otherGamma := enc(K3Tree, otherRegion), enc(Elias, otherRegion)
	flipped := bytes.Clone(k3)
	flipped[len(flipped)-1] ^= 0x01
	wrongCount := bytes.Clone(k3)
	wrongCount[11] ^= 0x01
	zoo := bytes.Clone(k3)
	zoo[0] = 5 // a method byte only the codec zoo reads
	span := region.Run{Lo: 10, Hi: 3000}
	spanK3 := encodeRuns(t, K3Tree, c, span)
	// On this curve a leaf group holds 8 ids and its parent's 64, so
	// [0, 37] ends inside both; the scattered runs leave whole subtrees
	// of every level between them for the walk to skip.
	insideMixed := encodeRuns(t, K3Tree, c, region.Run{Lo: 0, Hi: 37})
	scattered := encodeRuns(t, K3Tree, c, region.Run{Lo: 5, Hi: 6}, region.Run{Lo: 700, Hi: 705},
		region.Run{Lo: 2000, Hi: 2100}, region.Run{Lo: 3583, Hi: 3585}, region.Run{Lo: 4090, Hi: 4095})
	for name, rows := range map[string][][]byte{
		"single":                          {k3},
		"full k3 first":                   {full, k3},
		"full k3 later":                   {k3, full},
		"γ":                               {k3, gamma},
		"naive":                           {k3, naive},
		"zoo method":                      {k3, zoo},
		"γ on another curve":              {k3, otherGamma},
		"unsorted":                        {spanK3, naiveRow(c, 2, region.Run{Lo: 300, Hi: 310}, region.Run{Lo: 20, Hi: 40})},
		"overlapping":                     {spanK3, naiveRow(c, 2, region.Run{Lo: 20, Hi: 40}, region.Run{Lo: 30, Hi: 50})},
		"adjacent":                        {spanK3, naiveRow(c, 2, region.Run{Lo: 20, Hi: 40}, region.Run{Lo: 41, Hi: 50})},
		"duplicate":                       {spanK3, naiveRow(c, 2, region.Run{Lo: 20, Hi: 40}, region.Run{Lo: 20, Hi: 40})},
		"inverted":                        {spanK3, naiveRow(c, 2, region.Run{Lo: 20, Hi: 40}, region.Run{Lo: 60, Hi: 50})},
		"off the curve":                   {spanK3, naiveRow(c, 1, region.Run{Lo: 20, Hi: 4096})},
		"truncated naive":                 {k3, naive[:len(naive)-1]},
		"truncated k3":                    {full, k3[:len(k3)-1]},
		"truncated γ":                     {k3, gamma[:len(gamma)-1]},
		"short header":                    {k3, k3[:HeaderLen-1]},
		"flipped k3":                      {spanK3, flipped},
		"k3 count":                        {k3, wrongCount},
		"another curve":                   {k3, other},
		"another, cut":                    {k3, other[:len(other)-1]},
		"past an empty acc":               {empty, k3[:len(k3)-1]},
		"past an empty γ acc":             {emptyGamma, flipped},
		"empty then unsorted":             {empty, naiveRow(c, 2, region.Run{Lo: 300, Hi: 310}, region.Run{Lo: 20, Hi: 40})},
		"acc ends inside a mixed subtree": {insideMixed, k3, spanK3},
		"acc empties mid-row":             {encodeRuns(t, K3Tree, c, region.Run{Lo: 100, Hi: 101}), k3, full, k3, flipped},
		"skips between scattered runs":    {scattered, k3, spanK3, k3},
		"scattered, then truncated":       {scattered, spanK3, k3[:len(k3)-2]},
	} {
		t.Run(name, func(t *testing.T) { checkFold(t, rows) })
	}
}

// FuzzIntersectStored feeds the fold one arbitrary row among generated
// ones on its curve (or a default curve when its header names none),
// placed and coded by seed: whatever the row, the fold must reach the
// oracle's verdict and answer (checkFold) — a refusal at the first row
// that is not a k³-tree, Decode's verdict on one that is. The seed corpus starts
// from FuzzDecodeRegion's and FuzzDecodeK3's checked-in inputs, and adds
// k³-tree and γ rows of a few runs, the walk's edge cases among them:
// runs so far that end inside a mixed subtree, and ones that empty
// partway through a row.
func FuzzIntersectStored(f *testing.F) {
	for _, target := range []string{"FuzzDecodeRegion", "FuzzDecodeK3"} {
		for _, data := range fuzzCorpus(f, target) {
			f.Add(data, int64(len(data)))
		}
	}
	c := sfc.MustNew(sfc.Hilbert, 3, 3)
	f.Add(encodeRuns(f, K3Tree, c, region.Run{Lo: 2, Hi: 20}, region.Run{Lo: 30, Hi: 31}), int64(1))
	f.Add(encodeRuns(f, Elias, c, region.Run{Lo: 2, Hi: 20}), int64(2))
	f.Add(encodeRuns(f, K3Tree, c, region.Run{Lo: 2, Hi: 511}), int64(3))
	f.Add(encodeRuns(f, K3Tree, c, region.Run{Lo: 0, Hi: 37}), int64(4))
	f.Add(encodeRuns(f, K3Tree, c, region.Run{Lo: 100, Hi: 101}), int64(5))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		c := sfc.MustNew(sfc.Hilbert, 3, 3)
		if curve, _, _, err := Header(data); err == nil && curve.Length() <= 1<<24 {
			c = curve
		}
		rng := rand.New(rand.NewSource(seed))
		rows := foldRows(rng, foldRegions(rng, c))
		at := rng.Intn(len(rows) + 1)
		rows = append(rows[:at], append([][]byte{data}, rows[at:]...)...)
		checkFold(t, rows)
	})
}
