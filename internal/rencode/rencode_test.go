package rencode

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"qbism/internal/bitio"
	"qbism/internal/region"
	"qbism/internal/sfc"
)

var (
	h3 = sfc.MustNew(sfc.Hilbert, 3, 5)
	z3 = sfc.MustNew(sfc.ZOrder, 3, 5)
	h2 = sfc.MustNew(sfc.Hilbert, 2, 2)
)

func randRegion(rng *rand.Rand, c sfc.Curve, maxIDs int) *region.Region {
	n := rng.Intn(maxIDs)
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = rng.Uint64() % c.Length()
	}
	r, err := region.FromIDs(c, ids)
	if err != nil {
		panic(err)
	}
	return r
}

// TestRoundTripAllMethods property-tests Encode/Decode round trips for
// every method on random regions across curves.
func TestRoundTripAllMethods(t *testing.T) {
	for _, m := range Methods {
		m := m
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

func TestRoundTripEdgeRegions(t *testing.T) {
	for _, m := range Methods {
		for _, r := range []*region.Region{
			region.Empty(h3),
			region.Full(h3),
			mustRuns(t, h3, []region.Run{rn(0, 0)}),
			mustRuns(t, h3, []region.Run{rn(h3.Length()-1, h3.Length()-1)}),
			mustRuns(t, h3, []region.Run{rn(0, 0), rn(h3.Length()-1, h3.Length()-1)}),
		} {
			data, err := Encode(m, r)
			if err != nil {
				t.Fatalf("%v: encode: %v", m, err)
			}
			got, err := Decode(data)
			if err != nil {
				t.Fatalf("%v: decode: %v", m, err)
			}
			if !got.Equal(r) {
				t.Errorf("%v: round trip changed region %v", m, r)
			}
		}
	}
}

func rn(lo, hi uint64) region.Run { return region.Run{Lo: lo, Hi: hi} }

func mustRuns(t *testing.T, c sfc.Curve, runs []region.Run) *region.Region {
	t.Helper()
	r, err := region.FromRuns(c, runs)
	if err != nil {
		t.Fatal(err)
	}
	return r
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

// asideEncode is how the γ code was encoded before AppendEncode wrote
// its payload in place: the delta stream into a Writer of its own, then
// copied after the header. It stays as the oracle.
func asideEncode(r *region.Region) []byte {
	c := r.Curve()
	var w bitio.Writer
	var count uint64
	r.EachDelta(func(d region.Delta) {
		count++
		writeGamma(&w, d.Length)
	})
	out := []byte{Elias.code(), byte(c.Kind()), byte(c.Dim()), byte(c.Bits())}
	out = binary.BigEndian.AppendUint64(out, count)
	return append(out, w.Bytes()...)
}

// TestAppendEncodeInPlace: for the γ code, AppendEncode after a prefix
// gives the prefix and the aside encoder's bytes, and into a dst with
// EncodedSize room it writes there and allocates nothing.
func TestAppendEncodeInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var regions []*region.Region
	for _, c := range []sfc.Curve{h3, z3, h2, sfc.MustNew(sfc.Hilbert, 3, 7)} {
		regions = append(regions, region.Empty(c), region.Full(c), genOnCurve(rng, c), genOnCurve(rng, c), randRegion(rng, c, 400))
	}
	prefix := []byte{0xD7, 1, 2}
	for i, r := range regions {
		want := append(bytes.Clone(prefix), asideEncode(r)...)
		size, err := EncodedSize(Elias, r)
		if err != nil {
			t.Fatal(err)
		}
		for _, dst := range [][]byte{bytes.Clone(prefix), append(make([]byte, 0, len(prefix)+size), prefix...)} {
			got, err := AppendEncode(dst, Elias, r)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("region %d: AppendEncode = %x, aside encoder %x", i, got, want)
			}
		}
		dst := make([]byte, len(prefix), len(prefix)+size)
		allocs := testing.AllocsPerRun(10, func() {
			out, err := AppendEncode(dst, Elias, r)
			if err != nil || &out[0] != &dst[0] {
				t.Fatalf("region %d: AppendEncode left dst (%v)", i, err)
			}
		})
		if allocs != 0 {
			t.Errorf("region %d: %.0f allocs into a dst with room", i, allocs)
		}
	}
}

func TestNaivePaperSize(t *testing.T) {
	// The paper's example: the Figure 3 region has one h-run and the
	// naive method stores it in 8 bytes (+ our 12-byte header).
	ids := make([]uint64, 0, 7)
	z2 := sfc.MustNew(sfc.ZOrder, 2, 2)
	for _, zid := range []uint64{1, 4, 5, 6, 7, 12, 13} {
		ids = append(ids, h2.ID(z2.Point(zid)))
	}
	r, err := region.FromIDs(h2, ids)
	if err != nil {
		t.Fatal(err)
	}
	size, _ := EncodedSize(Naive, r)
	if size != HeaderLen+8 {
		t.Errorf("naive size = %d, want %d", size, HeaderLen+8)
	}
}

func TestDecodeErrors(t *testing.T) {
	r := mustRuns(t, h3, []region.Run{rn(3, 10), rn(20, 25)})
	data, err := Encode(Elias, r)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"short header":   data[:4],
		"empty":          {},
		"bad method":     append([]byte{200}, data[1:]...),
		"bad curve kind": func() []byte { d := append([]byte{}, data...); d[1] = 99; return d }(),
		"bad dim":        func() []byte { d := append([]byte{}, data...); d[2] = 9; return d }(),
		"truncated body": data[:len(data)-1],
	}
	for name, d := range cases {
		if _, err := Decode(d); err == nil {
			t.Errorf("%s: decode accepted", name)
		}
	}
}

func TestDecodeTruncatedEverywhere(t *testing.T) {
	// Failure injection: every prefix of a valid encoding must either
	// error or decode to some region without panicking.
	r := mustRuns(t, h3, []region.Run{rn(1, 5), rn(9, 9), rn(40, 100)})
	for _, m := range Methods {
		data, err := Encode(m, r)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(data); cut++ {
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("%v cut=%d: panic %v", m, cut, p)
					}
				}()
				Decode(data[:cut])
			}()
		}
	}
}

func TestNaiveRejectsHugeGrids(t *testing.T) {
	big := sfc.MustNew(sfc.Hilbert, 3, 12) // 36 id bits > 32
	if _, err := Encode(Naive, region.Full(big)); err == nil {
		t.Error("naive encoding on >32-bit grid accepted")
	}
	if _, err := EncodedSize(Naive, region.Full(big)); err != nil {
		t.Errorf("EncodedSize should still work: %v", err)
	}
}

func TestGammaCode(t *testing.T) {
	// Paper's worked examples: 1 -> "1", 2 -> "010", 3 -> "011", 4 -> "00100".
	cases := map[uint64]string{1: "1", 2: "010", 3: "011", 4: "00100"}
	// And the definition, ⌊log x⌋ zeros then x in binary, on both sides
	// of the one-field write (⌊log x⌋ < 32) and at the top of the range.
	for _, x := range []uint64{5, 1<<16 - 1, 1 << 16, 1<<31 + 7, 1<<32 - 1, 1 << 32, 1<<40 + 12345, 1 << 63, 1<<64 - 1} {
		bin := strconv.FormatUint(x, 2)
		cases[x] = strings.Repeat("0", len(bin)-1) + bin
	}
	for x, want := range cases {
		var w bitio.Writer
		writeGamma(&w, x)
		got := bitString(w.Bytes(), w.Len())
		if got != want {
			t.Errorf("gamma(%d) = %s, want %s", x, got, want)
		}
	}
}

func bitString(buf []byte, n int) string {
	s := make([]byte, n)
	for i := 0; i < n; i++ {
		if buf[i>>3]>>(7-uint(i&7))&1 == 1 {
			s[i] = '1'
		} else {
			s[i] = '0'
		}
	}
	return string(s)
}

// TestIntegerCodesRoundTrip exercises the γ code over a wide range;
// package zoo's exercises the paper's other integer codes.
func TestIntegerCodesRoundTrip(t *testing.T) {
	values := []uint64{1, 2, 3, 4, 5, 7, 8, 100, 127, 128, 1000, 1 << 20, 1<<40 + 12345}
	var w bitio.Writer
	for _, v := range values {
		before := w.Len()
		writeGamma(&w, v)
		if got := w.Len() - before; got != gammaBits(v) {
			t.Errorf("gamma(%d): wrote %d bits, gammaBits says %d", v, got, gammaBits(v))
		}
	}
	r := bitio.NewReader(w.Bytes(), w.Len())
	for _, v := range values {
		got, err := r.ReadGamma()
		if err != nil || got != v {
			t.Errorf("gamma: read %d, %v; want %d", got, err, v)
		}
	}
}

func TestCodesPanicOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("gamma(0) did not panic")
		}
	}()
	writeGamma(new(bitio.Writer), 0)
}

func TestEliasBeatsNaiveOnClusteredRegions(t *testing.T) {
	// A sphere has mostly short deltas, so elias should be several times
	// smaller than naive (the paper reports ~8x).
	c := sfc.MustNew(sfc.Hilbert, 3, 6)
	r, err := region.FromSphere(c, 32, 32, 32, 20)
	if err != nil {
		t.Fatal(err)
	}
	naive, _ := EncodedSize(Naive, r)
	elias, _ := EncodedSize(Elias, r)
	if elias*3 > naive {
		t.Errorf("elias %dB not ≥3x smaller than naive %dB", elias, naive)
	}
	t.Logf("sphere: naive=%dB elias=%dB ratio=%.1f", naive, elias, float64(naive)/float64(elias))
}

func TestMethodString(t *testing.T) {
	for _, m := range Methods {
		if m.String() == "" {
			t.Errorf("method %d has empty name", int(m))
		}
	}
	if Method(99).String() != "Method(99)" {
		t.Error("unknown method string")
	}
}

func BenchmarkEncodeElias(b *testing.B) {
	c := sfc.MustNew(sfc.Hilbert, 3, 7)
	r, err := region.FromSphere(c, 64, 64, 64, 40)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(Elias, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeElias(b *testing.B) {
	c := sfc.MustNew(sfc.Hilbert, 3, 7)
	r, err := region.FromSphere(c, 64, 64, 64, 40)
	if err != nil {
		b.Fatal(err)
	}
	data, err := Encode(Elias, r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}
