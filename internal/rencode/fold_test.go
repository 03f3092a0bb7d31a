package rencode

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"qbism/internal/region"
	"qbism/internal/sfc"
)

// checkFold holds a StoredFold over rows to the decoded oracle: each row
// decoded in turn, a row on another curve than the first refused, and
// region.IntersectN of them all. The fold must fail at the row the oracle
// fails at, with DecodeInto's very error there (ErrCorrupt or not) or one
// wrapping ErrCurveMismatch; otherwise its answer must be IntersectN's,
// in a run list nothing of the fold's shares, with only the rows it
// could not intersect in their stored form counted as decodes.
func checkFold(t *testing.T, rows [][]byte) {
	t.Helper()
	if len(rows) == 0 {
		return
	}
	var f StoredFold
	var decoded []*region.Region
	decodes := 0
	for i, row := range rows {
		dec, derr := Decode(row)
		var want error
		switch {
		case derr != nil:
			want = derr
		case i > 0 && !region.SameCurve(dec.Curve(), decoded[0].Curve()):
			want = ErrCurveMismatch
		}
		err := f.Intersect(row)
		switch {
		case want == nil && err != nil:
			t.Fatalf("row %d of %d: the fold refused what decodes: %v", i, len(rows), err)
		case want == nil:
			decoded = append(decoded, dec)
			if i == 0 || !storedStep(row, dec) {
				decodes++
			}
			continue
		case err == nil:
			t.Fatalf("row %d of %d: the fold accepted what the oracle refuses: %v", i, len(rows), want)
		case want == ErrCurveMismatch:
			if !errors.Is(err, ErrCurveMismatch) || errors.Is(err, ErrCorrupt) {
				t.Fatalf("row %d on another curve: %v, want an ErrCurveMismatch", i, err)
			}
		case err.Error() != want.Error() || errors.Is(err, ErrCorrupt) != errors.Is(want, ErrCorrupt):
			t.Fatalf("row %d: the fold's error %q, DecodeInto's %q", i, err, want)
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
	if f.Decodes() != decodes {
		t.Fatalf("%d rows: %d decodes, want %d", len(rows), f.Decodes(), decodes)
	}
	// The answer is the caller's: no later step may write into it.
	if runs := got.RunsView(); len(runs) > 0 {
		for _, buf := range [][]region.Run{f.acc[:cap(f.acc)], f.spare[:cap(f.spare)]} {
			for i := range buf {
				if &buf[i] == &runs[0] {
					t.Fatalf("%d rows: the answer's runs are the fold's own", len(rows))
				}
			}
		}
	}
}

// storedStep reports whether the fold intersects a valid row, which
// decodes to dec, in its stored form: a k³-tree, or a naive row whose
// records are its runs in order, strictly apart.
func storedStep(row []byte, dec *region.Region) bool {
	switch methodOfCode(row[0]) {
	case K3Tree:
		return true
	case Naive:
		enc, err := Encode(Naive, dec)
		return err == nil && len(row) >= len(enc) && bytes.Equal(row[:len(enc)], enc)
	}
	return false
}

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

// foldRows encodes each region as a naive row, a k³-tree row or, now
// and then, any served codec, dropping what a codec cannot hold.
func foldRows(rng *rand.Rand, regions []*region.Region) [][]byte {
	var rows [][]byte
	for _, r := range regions {
		m := Naive
		switch rng.Intn(5) {
		case 0, 1:
			m = K3Tree
		case 2:
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

// TestIntersectStoredMatchesIntersectN is the fold's differential test:
// random operand sets of every shape foldRegions makes, on 2D and 3D
// curves, stored as mixed naive, k³-tree and other rows; then rows the
// fast paths must hand to DecodeInto or refuse — naive rows out of order,
// overlapping, adjacent, inverted, off the curve or cut short, corrupt
// k³-trees, and rows on another curve.
func TestIntersectStoredMatchesIntersectN(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	curves := []sfc.Curve{sfc.MustNew(sfc.Hilbert, 3, 4), sfc.MustNew(sfc.Hilbert, 2, 5), sfc.MustNew(sfc.ZOrder, 3, 3)}
	for _, c := range curves {
		for range 200 {
			checkFold(t, foldRows(rng, foldRegions(rng, c)))
		}
	}

	c := curves[0]
	r := genOnCurve(rng, c)
	naive, err := Encode(Naive, r)
	if err != nil {
		t.Fatal(err)
	}
	k3, err := Encode(K3Tree, r)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Encode(K3Tree, region.Full(c))
	if err != nil {
		t.Fatal(err)
	}
	other, err := Encode(Naive, genOnCurve(rng, curves[1]))
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(k3)
	flipped[len(flipped)-1] ^= 0x01
	wrongCount := bytes.Clone(k3)
	wrongCount[11] ^= 0x01
	span := naiveRow(c, 1, region.Run{Lo: 10, Hi: 3000})
	for name, rows := range map[string][][]byte{
		"single":            {naive},
		"full k3 first":     {full, naive, k3},
		"full k3 later":     {naive, full},
		"unsorted":          {span, naiveRow(c, 2, region.Run{Lo: 300, Hi: 310}, region.Run{Lo: 20, Hi: 40})},
		"overlapping":       {span, naiveRow(c, 2, region.Run{Lo: 20, Hi: 40}, region.Run{Lo: 30, Hi: 50})},
		"adjacent":          {span, naiveRow(c, 2, region.Run{Lo: 20, Hi: 40}, region.Run{Lo: 41, Hi: 50})},
		"duplicate":         {span, naiveRow(c, 2, region.Run{Lo: 20, Hi: 40}, region.Run{Lo: 20, Hi: 40})},
		"inverted":          {span, naiveRow(c, 2, region.Run{Lo: 20, Hi: 40}, region.Run{Lo: 60, Hi: 50})},
		"off the curve":     {span, naiveRow(c, 1, region.Run{Lo: 20, Hi: 4096})},
		"truncated naive":   {naive, naive[:len(naive)-1]},
		"short header":      {naive, naive[:HeaderLen-1]},
		"flipped k3":        {naive, flipped},
		"k3 count":          {k3, wrongCount},
		"another curve":     {naive, other},
		"another, cut":      {naive, other[:len(other)-1]},
		"past an empty acc": {naiveRow(c, 0), naive[:len(naive)-1]},
		"empty then unsorted": {naiveRow(c, 0),
			naiveRow(c, 2, region.Run{Lo: 300, Hi: 310}, region.Run{Lo: 20, Hi: 40})},
	} {
		t.Run(name, func(t *testing.T) { checkFold(t, rows) })
	}
}

// FuzzIntersectStored feeds the fold one arbitrary row among generated
// ones on its curve (or a default curve when its header names none),
// placed and coded by seed: whatever the row, the fold must reach the
// decoded oracle's verdict and answer (checkFold). The seed corpus starts
// from FuzzDecodeRegion's and FuzzDecodeK3's checked-in inputs.
func FuzzIntersectStored(f *testing.F) {
	for _, target := range []string{"FuzzDecodeRegion", "FuzzDecodeK3"} {
		for _, data := range fuzzCorpus(f, target) {
			f.Add(data, int64(len(data)))
		}
	}
	c := sfc.MustNew(sfc.Hilbert, 3, 3)
	f.Add(naiveRow(c, 2, region.Run{Lo: 30, Hi: 31}, region.Run{Lo: 2, Hi: 20}), int64(1))
	f.Add(naiveRow(c, 2, region.Run{Lo: 2, Hi: 9}, region.Run{Lo: 10, Hi: 20}), int64(2))
	f.Add(naiveRow(c, 1, region.Run{Lo: 2, Hi: 512}), int64(3))
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
