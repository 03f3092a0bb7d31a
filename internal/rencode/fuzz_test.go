package rencode

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"qbism/internal/region"
	"qbism/internal/sfc"
)

// FuzzDecodeRegion asserts the decoder's contract under arbitrary
// bytes: it returns a region or a wrapped ErrCorrupt, never panics,
// never over-allocates on a corrupt header, and anything it does accept
// re-encodes byte-identically (decode∘encode is the identity on the
// codec's image — the same invariant prop_test checks from the encode
// side).
func FuzzDecodeRegion(f *testing.F) {
	// Seed with one real encoding per method byte so coverage starts
	// inside every payload decoder, not just the header checks: the
	// method's own where this package has one, and otherwise — the bytes
	// of package zoo's codecs, which the decoder refuses — the γ payload
	// under that byte.
	curve, err := sfc.New(sfc.Hilbert, 3, 3)
	if err != nil {
		f.Fatal(err)
	}
	r, err := region.FromRuns(curve, []region.Run{{Lo: 3, Hi: 9}, {Lo: 17, Hi: 17}, {Lo: 40, Hi: 63}})
	if err != nil {
		f.Fatal(err)
	}
	gamma, err := Encode(Elias, r)
	if err != nil {
		f.Fatal(err)
	}
	for b := range K3Tree.code() + 1 {
		enc := append([]byte{b}, gamma[1:]...)
		if m, ok := MethodOf(enc); ok {
			if enc, err = Encode(m, r); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(enc)
		// A truncated and a bit-flipped variant of each, so the corpus
		// begins with near-valid corruption.
		f.Add(enc[:len(enc)-1])
		flipped := bytes.Clone(enc)
		flipped[len(flipped)/2] ^= 0x40
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	for _, seed := range gammaWindowSeeds(f) {
		f.Add(seed.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := Decode(data)
		checkDecodeInto(t, data, dec, err)
		if err != nil {
			return
		}
		checkRunInvariants(t, dec, "fuzz decode")
		m, _ := MethodOf(data)
		enc, err := Encode(m, dec)
		if err != nil {
			// Encode can legitimately reject what Decode accepted only
			// for grids too large for the method (naive's 32-bit ids).
			t.Skipf("re-encode rejected: %v", err)
		}
		dec2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !regionsEqual(dec, dec2) {
			t.Fatalf("decode(encode(decode(x))) != decode(x) for method %v", m)
		}
	})
}

// gammaSeed is an Elias γ encoding and the region it decodes to (nil
// when it must be refused).
type gammaSeed struct {
	data []byte
	want *region.Region
}

// gammaWindowSeeds are Elias γ encodings whose codes straddle the
// bitio.Reader's window: payloads of 7, 8 and 9 bytes, one code crossing
// bit 57 (the least a fill promises) and one crossing bit 64 (the first
// refill), plus the 9-byte one cut at the 8-byte word boundary, in the
// middle of its last code. Each lists a region's deltas, a run first.
func gammaWindowSeeds(tb testing.TB) []gammaSeed {
	c := sfc.MustNew(sfc.Hilbert, 3, 7)
	var out []gammaSeed
	for _, deltas := range [][]uint64{
		{1 << 12, 1 << 10, 7},  // 25 + 21 + 5 bits: 7 bytes
		{1 << 18, 1 << 10, 3},  // 37 + 21 + 3: 8 bytes, the second code across bit 57
		{1 << 20, 1 << 9, 5},   // 41 + 19 + 5: 9 bytes, the third across bit 64
		{1, 1, 1 << 19, 2, 11}, // 1 + 1 + 39 + 3 + 7: 7 bytes
	} {
		var runs []region.Run
		pos := uint64(0)
		for i, d := range deltas {
			if i%2 == 0 {
				runs = append(runs, region.Run{Lo: pos, Hi: pos + d - 1})
			}
			pos += d
		}
		r, err := region.FromRuns(c, runs)
		if err != nil {
			tb.Fatal(err)
		}
		enc, err := Encode(Elias, r)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, gammaSeed{enc, r})
		if len(enc) == HeaderLen+9 {
			out = append(out, gammaSeed{enc[:HeaderLen+8], nil})
		}
	}
	return out
}

// TestGammaWindowSeeds: the seeds decode to their regions, and the one
// cut at the word boundary is refused as corrupt.
func TestGammaWindowSeeds(t *testing.T) {
	for i, seed := range gammaWindowSeeds(t) {
		got, err := Decode(seed.data)
		switch {
		case seed.want == nil:
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("seed %d: truncated code decoded (%v)", i, err)
			}
		case err != nil:
			t.Errorf("seed %d: %v", i, err)
		case !got.Equal(seed.want):
			t.Errorf("seed %d: decoded %v, want %v", i, got.RunsView(), seed.want.RunsView())
		}
	}
}

// FuzzDecodeK3 drives the k³-tree parser specifically: ParseK3 must
// return a probe or a wrapped error, never panic, and anything it
// accepts must (a) re-encode byte-identically after materialization —
// the canonical-form contract — and (b) answer ContainsID identically
// to the materialized run list, and CoversRuns as region.Contains does
// (checkCoversRuns), so a forged bitmap can't silently desynchronize
// the probe from the decode. The checked-in corpus
// includes a hand-forged truncated-bitmap crasher seed
// (testdata/fuzz/FuzzDecodeK3/truncated_bitmap): a valid header and
// gray root whose level payload is cut mid-bitmap.
func FuzzDecodeK3(f *testing.F) {
	curve, err := sfc.New(sfc.Hilbert, 3, 3)
	if err != nil {
		f.Fatal(err)
	}
	shapes := [][]region.Run{
		nil,
		{{Lo: 0, Hi: curve.Length() - 1}},
		{{Lo: 3, Hi: 9}, {Lo: 17, Hi: 17}, {Lo: 40, Hi: 63}},
		{{Lo: 0, Hi: 7}, {Lo: 64, Hi: 127}, {Lo: 300, Hi: 511}},
	}
	for _, runs := range shapes {
		r, err := region.FromRuns(curve, runs)
		if err != nil {
			f.Fatal(err)
		}
		enc, err := Encode(K3Tree, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		if len(enc) > HeaderLen+1 {
			f.Add(enc[:len(enc)-1])
			flipped := bytes.Clone(enc)
			flipped[HeaderLen+1+(len(flipped)-HeaderLen-1)/2] ^= 0x10
			f.Add(flipped)
		}
	}
	// A 2D (degree-4) seed so the nibble-group validation path is in
	// the corpus too.
	c2 := sfc.MustNew(sfc.ZOrder, 2, 3)
	r2, err := region.FromRuns(c2, []region.Run{{Lo: 2, Hi: 20}, {Lo: 40, Hi: 41}})
	if err != nil {
		f.Fatal(err)
	}
	enc2, err := Encode(K3Tree, r2)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc2)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// The reuse leg: parsed into a probe a larger, deeper tree left
		// its level table in, the input gets the fresh parse's verdict
		// and, when accepted, the fresh probe.
		var reused K3Probe
		if err := reused.Parse(reuseSeed()); err != nil {
			t.Fatal(err)
		}
		rerr := reused.Parse(data)
		p, err := ParseK3(data)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("ParseK3 error %v, Parse into a used probe %v", err, rerr)
		}
		if err != nil {
			checkRejectedProbe(t, "fuzz k3", &reused)
			// Rejected input must also be rejected by the generic
			// decoder when it names this method.
			if len(data) > 0 && data[0] == K3Tree.code() {
				if _, derr := Decode(data); derr == nil {
					t.Fatal("ParseK3 rejected what Decode accepted")
				}
			}
			return
		}
		sameProbe(t, "fuzz k3", &reused, p)
		dec, err := probeRegion(p)
		if err != nil {
			t.Fatalf("accepted probe failed to materialize: %v", err)
		}
		checkRunInvariants(t, dec, "fuzz k3")
		if dec.NumVoxels() != p.NumVoxels() {
			t.Fatalf("probe reports %d voxels, run list holds %d", p.NumVoxels(), dec.NumVoxels())
		}
		enc, err := Encode(K3Tree, dec)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(data, enc) {
			t.Fatalf("accepted non-canonical k3 input: %d bytes in, %d bytes re-encoded", len(data), len(enc))
		}
		// Probe answers must match the materialized oracle.
		n := dec.Curve().Length()
		step := n/257 + 1
		for id := uint64(0); id < n; id += step {
			if p.ContainsID(id) != dec.ContainsID(id) {
				t.Fatalf("ContainsID(%d) diverges from the run list", id)
			}
		}
		checkCoversRuns(t, "fuzz k3", rand.New(rand.NewSource(int64(len(data)))), p, dec)
	})
}

// reuseSeed is the tree FuzzDecodeK3's reuse leg parses first: a
// random region on a 7-bit 3D curve, deeper and larger than the
// corpus's trees.
var reuseSeed = sync.OnceValue(func() []byte {
	r := genOnCurve(rand.New(rand.NewSource(7)), sfc.MustNew(sfc.Hilbert, 3, 7))
	blob, err := Encode(K3Tree, r)
	if err != nil {
		panic(err)
	}
	return blob
})

func regionsEqual(a, b *region.Region) bool {
	ra, rb := a.Runs(), b.Runs()
	if len(ra) != len(rb) {
		return false
	}
	for i := range ra {
		if ra[i] != rb[i] {
			return false
		}
	}
	return true
}

// FuzzK3IntersectK3 meets one arbitrary k³-tree — seeded from
// FuzzDecodeK3's checked-in corpus — with a second one the seed generates
// on the same curve, as the server meets two (meetK3). Whatever the
// parser accepts, either one decoded and met by the other's walk must
// agree with the run-list intersection of the two decoded operands.
func FuzzK3IntersectK3(f *testing.F) {
	for _, data := range fuzzCorpus(f, "FuzzDecodeK3") {
		for seed := int64(0); seed < 3; seed++ {
			f.Add(data, seed)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		p, err := ParseK3(data)
		if err != nil {
			return
		}
		c := p.Curve()
		var b *region.Region
		switch rng := rand.New(rand.NewSource(seed)); seed % 4 {
		case 0:
			b = region.Full(c)
		case 1:
			if b, err = probeRegion(p); err != nil {
				t.Fatal(err)
			}
		default:
			b = genOnCurve(rng, c)
		}
		blob, err := Encode(K3Tree, b)
		if err != nil {
			t.Fatal(err)
		}
		q, err := ParseK3(blob)
		if err != nil {
			t.Fatal(err)
		}
		a, err := probeRegion(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := region.Intersect(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if got := meetK3(p, q, nil, nil); !slices.Equal(got, want.RunsView()) {
			t.Fatalf("p∩q = %v, run lists give %v", got, want.RunsView())
		}
		if got := meetK3(q, p, nil, nil); !slices.Equal(got, want.RunsView()) {
			t.Fatalf("q∩p = %v, run lists give %v", got, want.RunsView())
		}
	})
}
