package rencode

import (
	"bytes"
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
	// Seed with one real encoding per method so coverage starts inside
	// every payload decoder, not just the header checks.
	curve, err := sfc.New(sfc.Hilbert, 3, 3)
	if err != nil {
		f.Fatal(err)
	}
	r, err := region.FromRuns(curve, []region.Run{{Lo: 3, Hi: 9}, {Lo: 17, Hi: 17}, {Lo: 40, Hi: 63}})
	if err != nil {
		f.Fatal(err)
	}
	for _, m := range Methods {
		enc, err := Encode(m, r)
		if err != nil {
			f.Fatal(err)
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

	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := Decode(data)
		checkDecodeInto(t, data, dec, err)
		if err != nil {
			return
		}
		checkRunInvariants(t, dec, "fuzz decode")
		m := Method(data[0])
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

// FuzzDecodeK3 drives the k³-tree parser specifically: ParseK3 must
// return a probe or a wrapped error, never panic, and anything it
// accepts must (a) re-encode byte-identically after materialization —
// the canonical-form contract — and (b) answer ContainsID identically
// to the materialized run list, so a forged bitmap can't silently
// desynchronize the probe from the decode. The checked-in corpus
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
		if len(enc) > headerLen+1 {
			f.Add(enc[:len(enc)-1])
			flipped := bytes.Clone(enc)
			flipped[headerLen+1+(len(flipped)-headerLen-1)/2] ^= 0x10
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
		// its levels and rank directories in, the input gets the fresh
		// parse's verdict and, when accepted, the fresh probe.
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
			if len(data) > 0 && data[0] == byte(K3Tree) {
				if _, derr := Decode(data); derr == nil {
					t.Fatal("ParseK3 rejected what Decode accepted")
				}
			}
			return
		}
		sameProbe(t, "fuzz k3", &reused, p)
		dec, err := p.Region()
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

// FuzzK3IntersectK3 drives the synchronized descent with one arbitrary
// k³-tree — seeded from FuzzDecodeK3's checked-in corpus — against a
// second one the seed generates on the same curve. Whatever the parser
// accepts, IntersectK3 must agree both ways round with the run-list
// intersection of the two decoded operands.
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
			if b, err = p.Region(); err != nil {
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
		a, err := p.Region()
		if err != nil {
			t.Fatal(err)
		}
		want, err := region.Intersect(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.IntersectK3(q); !slices.Equal(got, want.RunsView()) {
			t.Fatalf("p∩q = %v, run lists give %v", got, want.RunsView())
		}
		if got := q.IntersectK3(p); !slices.Equal(got, want.RunsView()) {
			t.Fatalf("q∩p = %v, run lists give %v", got, want.RunsView())
		}
	})
}
