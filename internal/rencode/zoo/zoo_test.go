package zoo

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"qbism/internal/bitio"
	"qbism/internal/region"
	"qbism/internal/rencode"
	"qbism/internal/sfc"
)

var (
	h3 = sfc.MustNew(sfc.Hilbert, 3, 5)
	z3 = sfc.MustNew(sfc.ZOrder, 3, 5)
	h2 = sfc.MustNew(sfc.Hilbert, 2, 2)
	z2 = sfc.MustNew(sfc.ZOrder, 2, 2)
)

func rn(lo, hi uint64) region.Run { return region.Run{Lo: lo, Hi: hi} }

func mustRuns(t *testing.T, c sfc.Curve, runs ...region.Run) *region.Region {
	t.Helper()
	r, err := region.FromRuns(c, runs)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// randRegion builds a region of up to maxIDs random voxels on c.
func randRegion(rng *rand.Rand, c sfc.Curve, maxIDs int) *region.Region {
	ids := make([]uint64, rng.Intn(maxIDs))
	for i := range ids {
		ids[i] = rng.Uint64() % c.Length()
	}
	r, err := region.FromIDs(c, ids)
	if err != nil {
		panic(err)
	}
	return r
}

// checkRunInvariants asserts the canonical run-list form every decoded
// REGION must satisfy: runs sorted, disjoint, never adjacent, and inside
// the curve's domain.
func checkRunInvariants(t *testing.T, r *region.Region, ctx string) {
	t.Helper()
	n := r.Curve().Length()
	runs := r.RunsView()
	for i, run := range runs {
		if run.Lo > run.Hi || run.Hi >= n || (i > 0 && run.Lo <= runs[i-1].Hi+1) {
			t.Fatalf("%s: run %d %v is not canonical in %v", ctx, i, run, runs)
		}
	}
}

// TestRoundTripAllMethods property-tests Encode/Decode round trips for
// every method on random regions across curves.
func TestRoundTripAllMethods(t *testing.T) {
	for _, m := range Methods {
		t.Run(m.String(), func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				c := []sfc.Curve{h3, z3, h2}[rng.Intn(3)]
				r := randRegion(rng, c, 300)
				data, err := Encode(m, r)
				if err != nil {
					t.Logf("encode: %v", err)
					return false
				}
				got, err := Decode(data)
				if err != nil {
					t.Logf("decode: %v", err)
					return false
				}
				return got.Equal(r)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestEncodedSizeMatches checks EncodedSize against actual Encode output.
func TestEncodedSizeMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		r := randRegion(rng, h3, 500)
		for _, m := range Methods {
			data, err := Encode(m, r)
			if err != nil {
				t.Fatal(err)
			}
			size, err := EncodedSize(m, r)
			if err != nil {
				t.Fatal(err)
			}
			if size != len(data) {
				t.Errorf("%v: EncodedSize = %d, len(Encode) = %d", m, size, len(data))
			}
		}
	}
}

// asideEncode is how the zoo's codecs were encoded before AppendEncode
// wrote their payload in place: the delta stream into a Writer of its
// own, or the octant list built first, then copied after the header.
// rencode's methods are rencode's encodings. It stays as the oracle.
func asideEncode(m Method, r *region.Region) []byte {
	if !m.own() {
		out, err := rencode.Encode(rencode.Method(m), r)
		if err != nil {
			panic(err)
		}
		return out
	}
	c := r.Curve()
	var riceK uint8
	if m == Golomb {
		riceK = riceParam(r)
	}
	var w bitio.Writer
	var count uint64
	switch m {
	case OblongOctant, Octant:
		for _, o := range octants(r, m) {
			v, err := PackOctant(o)
			if err != nil {
				panic(err)
			}
			w.WriteBits(uint64(v), 32)
			count++
		}
	default:
		r.EachDelta(func(d region.Delta) {
			count++
			switch m {
			case EliasDelta:
				writeDelta(&w, d.Length)
			case Varint:
				writeVarint(&w, d.Length)
			case Golomb:
				writeRice(&w, d.Length, riceK)
			}
		})
	}
	out := []byte{byte(m), byte(c.Kind()), byte(c.Dim()), byte(c.Bits())}
	out = binary.BigEndian.AppendUint64(out, count)
	if m == Golomb {
		out = append(out, riceK)
	}
	return append(out, w.Bytes()...)
}

// TestAppendEncodeInPlace: for every method, AppendEncode after a prefix
// gives the prefix and the aside encoder's bytes, and into a dst with
// EncodedSize room it writes there; the delta streams, naive and γ
// allocate nothing doing so (the k³-tree builds its bitmaps aside, the
// octant methods their block lists).
func TestAppendEncodeInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var regions []*region.Region
	for _, c := range []sfc.Curve{h3, z3, h2, sfc.MustNew(sfc.Hilbert, 3, 7)} {
		regions = append(regions, region.Empty(c), region.Full(c), randRegion(rng, c, 400), randRegion(rng, c, 40))
	}
	prefix := []byte{0xD7, 1, 2}
	for _, m := range Methods {
		for i, r := range regions {
			want := append(bytes.Clone(prefix), asideEncode(m, r)...)
			size, err := EncodedSize(m, r)
			if err != nil {
				t.Fatal(err)
			}
			for _, dst := range [][]byte{bytes.Clone(prefix), append(make([]byte, 0, len(prefix)+size), prefix...)} {
				got, err := AppendEncode(dst, m, r)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%v region %d: AppendEncode = %x, aside encoder %x", m, i, got, want)
				}
			}
			dst := make([]byte, len(prefix), len(prefix)+size)
			allocs := testing.AllocsPerRun(10, func() {
				out, err := AppendEncode(dst, m, r)
				if err != nil || &out[0] != &dst[0] {
					t.Fatalf("%v region %d: AppendEncode left dst (%v)", m, i, err)
				}
			})
			if aside := m == K3Tree || m == OblongOctant || m == Octant; allocs != 0 && !aside {
				t.Errorf("%v region %d: %.0f allocs into a dst with room", m, i, allocs)
			}
		}
	}
}

// TestMethodsExhaustive pins the study's methods: all eight are listed
// once with a name of their own (no Method(%d) fall-through), rencode's
// three under rencode's name, MethodOf reads each one's encodings back
// as it, and every encoding round-trips byte-identically.
func TestMethodsExhaustive(t *testing.T) {
	if len(Methods) != 8 {
		t.Fatalf("Methods lists %d methods, want the study's 8", len(Methods))
	}
	names := map[string]Method{}
	for _, m := range Methods {
		name := m.String()
		if strings.HasPrefix(name, "Method(") {
			t.Errorf("String() does not cover method %d", int(m))
		}
		if prev, dup := names[name]; dup {
			t.Errorf("methods %v and %v share the name %q", prev, m, name)
		}
		names[name] = m
		if !m.own() && name != rencode.Method(m).String() {
			t.Errorf("%v is rencode's %v", m, rencode.Method(m))
		}
	}
	if !strings.HasPrefix(Method(8).String(), "Method(") {
		t.Errorf("Method(8) has a name: %q", Method(8).String())
	}
	rng := rand.New(rand.NewSource(93))
	suite := []*region.Region{region.Empty(h2), region.Full(h3)}
	for i := 0; i < 20; i++ {
		suite = append(suite, randRegion(rng, []sfc.Curve{h3, z3, h2}[i%3], 200))
	}
	for _, r := range suite {
		for _, m := range Methods {
			blob, err := Encode(m, r)
			if err != nil {
				t.Fatalf("%v: encode: %v", m, err)
			}
			if got, ok := MethodOf(blob); !ok || got != m {
				t.Fatalf("MethodOf(%v blob) = %v, %v", m, got, ok)
			}
			dec, err := Decode(blob)
			if err != nil || !dec.Equal(r) {
				t.Fatalf("%v: round trip: %v", m, err)
			}
			checkRunInvariants(t, dec, m.String())
			if again, err := Encode(m, dec); err != nil || !bytes.Equal(blob, again) {
				t.Fatalf("%v: re-encode not byte-identical (%v)", m, err)
			}
		}
	}
}

// TestIntegerCodesRoundTrip exercises each of the zoo's integer codes
// over a wide range.
func TestIntegerCodesRoundTrip(t *testing.T) {
	values := []uint64{1, 2, 3, 4, 5, 7, 8, 100, 127, 128, 1000, 1 << 20, 1<<40 + 12345, 1<<64 - 1}
	// The Rice code's unary quotient makes huge values with small k
	// impractically long, so test it on a bounded range.
	riceValues := []uint64{1, 2, 3, 15, 16, 17, 100, 1000, 5000}
	codes := []struct {
		name   string
		write  func(*bitio.Writer, uint64)
		read   func(*bitio.Reader) (uint64, error)
		bits   func(uint64) int
		values []uint64
	}{
		{"delta", writeDelta, readDelta, deltaBits, values},
		{"varint", writeVarint, readVarint, varintBits, values},
		{"rice4", func(w *bitio.Writer, x uint64) { writeRice(w, x, 4) },
			func(r *bitio.Reader) (uint64, error) { return readRice(r, 4) },
			func(x uint64) int { return riceBits(x, 4) }, riceValues},
	}
	for _, code := range codes {
		var w bitio.Writer
		for _, v := range code.values {
			before := w.Len()
			code.write(&w, v)
			if got := w.Len() - before; got != code.bits(v) {
				t.Errorf("%s(%d): wrote %d bits, bits() says %d", code.name, v, got, code.bits(v))
			}
		}
		r := bitio.NewReader(w.Bytes(), w.Len())
		for _, v := range code.values {
			got, err := code.read(r)
			if err != nil || got != v {
				t.Errorf("%s: read %d, %v; want %d", code.name, got, err, v)
			}
		}
	}
}

func TestCodesPanicOnZero(t *testing.T) {
	var w bitio.Writer
	for name, f := range map[string]func(){
		"delta": func() { writeDelta(&w, 0) },
		"rice":  func() { writeRice(&w, 0, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(0) did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestEntropyBound(t *testing.T) {
	// Region with uniform delta lengths has zero entropy per delta.
	r := mustRuns(t, h3, rn(1, 1), rn(3, 3), rn(5, 5), rn(7, 7))
	// Deltas: gap1 run1 gap1 run1 gap1 run1 gap1 run1 — all length 1.
	if h := EntropyBitsPerDelta(r); h != 0 {
		t.Errorf("uniform deltas entropy = %v, want 0", h)
	}
	r2 := mustRuns(t, h3, rn(2, 3), rn(6, 7), rn(10, 11))
	// Deltas: gap2 run2 gap2 run2 gap2 run2: all length 2 -> entropy 0.
	if h := EntropyBitsPerDelta(r2); h != 0 {
		t.Errorf("entropy = %v, want 0", h)
	}
	r3 := mustRuns(t, h3, rn(1, 2), rn(4, 4))
	// Deltas: gap1 run2 gap1 run1 -> lengths {1:3, 2:1} -> H = 0.811
	want := -(0.75*math.Log2(0.75) + 0.25*math.Log2(0.25))
	if h := EntropyBitsPerDelta(r3); math.Abs(h-want) > 1e-12 {
		t.Errorf("entropy = %v, want %v", h, want)
	}
	if EntropyBound(region.Empty(h3)) != 0 || EntropyBitsPerDelta(region.Empty(h3)) != 0 {
		t.Error("empty region entropy not 0")
	}
}

func TestEliasNearEntropyBound(t *testing.T) {
	// The paper: elias ≈ 1.17x the entropy bound on brain-like regions.
	// On a smooth blob the ratio should be small (< 3).
	c := sfc.MustNew(sfc.Hilbert, 3, 6)
	r, err := region.FromEllipsoid(c, region.Ellipsoid{CX: 30, CY: 32, CZ: 30, RX: 17, RY: 11, RZ: 23})
	if err != nil {
		t.Fatal(err)
	}
	bound := EntropyBound(r)
	elias, _ := EncodedSize(Elias, r)
	ratio := float64(elias) / bound
	if ratio > 3 {
		t.Errorf("elias/entropy = %.2f, want < 3", ratio)
	}
	t.Logf("ellipsoid: entropy=%.0fB elias=%dB ratio=%.2f", bound, elias, ratio)
}

func TestDeltaHistogram(t *testing.T) {
	h := DeltaHistogram(mustRuns(t, h3, rn(1, 2), rn(4, 4)))
	if h[1] != 3 || h[2] != 1 || len(h) != 2 {
		t.Errorf("histogram = %v", h)
	}
}

// TestDecodeNormalizesHandWrittenRuns: an octant payload that lists its
// blocks out of order, overlapping or adjacent is reachable only by
// hand, and still decodes to the normalized region; a misaligned or
// oversized block is still refused.
func TestDecodeNormalizesHandWrittenRuns(t *testing.T) {
	c := sfc.MustNew(sfc.Hilbert, 3, 3)
	octant := func(blocks ...Block) []byte {
		blob := []byte{byte(Octant), byte(c.Kind()), 3, 3, 0, 0, 0, 0, 0, 0, 0, byte(len(blocks))}
		for _, o := range blocks {
			blob = binary.BigEndian.AppendUint32(blob, uint32(o.ID)<<5|uint32(o.Rank))
		}
		return blob
	}
	want := mustRuns(t, c, rn(8, 23), rn(32, 32))
	for name, blob := range map[string][]byte{
		"unsorted":    octant(Block{32, 0}, Block{16, 3}, Block{8, 3}),
		"overlapping": octant(Block{8, 3}, Block{12, 2}, Block{16, 3}, Block{32, 0}),
		"adjacent":    octant(Block{8, 3}, Block{16, 3}, Block{32, 0}),
		"duplicate":   octant(Block{8, 3}, Block{8, 3}, Block{16, 3}, Block{32, 0}),
	} {
		dec, err := Decode(blob)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !dec.Equal(want) {
			t.Fatalf("%s: decoded %v, want %v", name, dec.Runs(), want.Runs())
		}
		checkRunInvariants(t, dec, name)
	}
	for name, blob := range map[string][]byte{
		"misaligned": octant(Block{4, 3}),
		"oversized":  octant(Block{0, 10}),
	} {
		if _, err := Decode(blob); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

// fuzzCorpus reads every checked-in input of one fuzz target (the
// "go test fuzz v1" files hold one []byte literal).
func fuzzCorpus(t testing.TB, target string) map[string][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus for %s (%v)", target, err)
	}
	out := make(map[string][]byte, len(files))
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") {
			t.Fatalf("%s: not a single-[]byte corpus file", f)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out[filepath.Base(f)] = []byte(s)
	}
	return out
}

// corpusAccepted records which checked-in fuzz inputs Decode accepted
// while these codecs were rencode's; the crashers it rejected. Decode
// must draw the line in the same place.
var corpusAccepted = map[string]bool{
	"seed_elias-delta":   true,
	"seed_golomb":        true,
	"seed_oblong-octant": true,
	"seed_octant":        true,
	"seed_varint":        true,
}

// TestFuzzCorpusVerdictsUnchanged: over the checked-in corpus, what
// Decode accepts and rejects is what it was, every rejection is a typed
// rencode.ErrCorrupt, and every input is in one of the zoo's own codecs,
// which rencode refuses.
func TestFuzzCorpusVerdictsUnchanged(t *testing.T) {
	for name, data := range fuzzCorpus(t, "FuzzDecodeRegion") {
		if m, ok := MethodOf(data); !ok || !m.own() {
			t.Errorf("%s: method %v is not the zoo's", name, m)
		}
		dec, err := Decode(data)
		if (err == nil) != corpusAccepted[name] {
			t.Errorf("%s: accepted=%v, was %v (err %v)", name, err == nil, corpusAccepted[name], err)
			continue
		}
		if err != nil && !errors.Is(err, rencode.ErrCorrupt) {
			t.Errorf("%s: rejection is not ErrCorrupt: %v", name, err)
		}
		if err == nil {
			checkRunInvariants(t, dec, name)
		}
		if _, err := rencode.Decode(data); !errors.Is(err, rencode.ErrCorrupt) {
			t.Errorf("%s: rencode.Decode err %v, want ErrCorrupt", name, err)
		}
	}
}

// FuzzDecodeRegion asserts the decoder's contract under arbitrary
// bytes: it returns a region or an error, never panics, never
// over-allocates on a corrupt header, and anything it does accept
// re-encodes byte-identically under the same method (decode∘encode is
// the identity on the codec's image).
func FuzzDecodeRegion(f *testing.F) {
	// Seed with one real encoding per method so coverage starts inside
	// every payload decoder, not just the header checks, each also
	// truncated and bit-flipped.
	c := sfc.MustNew(sfc.Hilbert, 3, 3)
	r, err := region.FromRuns(c, []region.Run{rn(3, 9), rn(17, 17), rn(40, 63)})
	if err != nil {
		f.Fatal(err)
	}
	for _, m := range Methods {
		enc, err := Encode(m, r)
		if err != nil {
			f.Fatal(err)
		}
		flipped := bytes.Clone(enc)
		flipped[len(flipped)/2] ^= 0x40
		f.Add(enc)
		f.Add(enc[:len(enc)-1])
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec, err := Decode(data)
		if err != nil {
			return
		}
		checkRunInvariants(t, dec, "fuzz decode")
		m, _ := MethodOf(data)
		enc, err := Encode(m, dec)
		if err != nil {
			// Encode can legitimately reject what Decode accepted only
			// for grids too large for the method (naive's 32-bit ids,
			// the octants' 27).
			t.Skipf("re-encode rejected: %v", err)
		}
		dec2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !dec.Equal(dec2) {
			t.Fatalf("decode(encode(decode(x))) != decode(x) for method %v", m)
		}
	})
}
