package rencode

import (
	"bytes"
	"encoding/binary"
	"math"
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

// asideEncode is how the bit codecs were encoded before AppendEncode
// wrote their payload in place: the delta stream into a Writer of its
// own, then copied after the header. It stays as the oracle.
func asideEncode(m Method, r *region.Region) []byte {
	c := r.Curve()
	var riceK uint8
	if m == Golomb {
		riceK = riceParam(r)
	}
	var w bitio.Writer
	var count uint64
	r.EachDelta(func(d region.Delta) {
		count++
		switch m {
		case Elias:
			writeGamma(&w, d.Length)
		case EliasDelta:
			writeDelta(&w, d.Length)
		case Varint:
			writeVarint(&w, d.Length)
		case Golomb:
			writeRice(&w, d.Length, riceK)
		}
	})
	out := []byte{m.code(), byte(c.Kind()), byte(c.Dim()), byte(c.Bits())}
	out = binary.BigEndian.AppendUint64(out, count)
	if m == Golomb {
		out = append(out, riceK)
	}
	return append(out, w.Bytes()...)
}

// TestAppendEncodeInPlace: for the bit codecs, AppendEncode after a
// prefix gives the prefix and the aside encoder's bytes, and into a dst
// with EncodedSize room it writes there and allocates nothing.
func TestAppendEncodeInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var regions []*region.Region
	for _, c := range []sfc.Curve{h3, z3, h2, sfc.MustNew(sfc.Hilbert, 3, 7)} {
		regions = append(regions, region.Empty(c), region.Full(c), genOnCurve(rng, c), genOnCurve(rng, c), randRegion(rng, c, 400))
	}
	prefix := []byte{0xD7, 1, 2}
	for _, m := range []Method{Elias, EliasDelta, Golomb, Varint} {
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
			if allocs != 0 {
				t.Errorf("%v region %d: %.0f allocs into a dst with room", m, i, allocs)
			}
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
	if size != headerLen+8 {
		t.Errorf("naive size = %d, want %d", size, headerLen+8)
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

// TestIntegerCodesRoundTrip exercises each integer code over a wide range.
func TestIntegerCodesRoundTrip(t *testing.T) {
	values := []uint64{1, 2, 3, 4, 5, 7, 8, 100, 127, 128, 1000, 1 << 20, 1<<40 + 12345}
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
		{"gamma", writeGamma, (*bitio.Reader).ReadGamma, gammaBits, values},
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
		"gamma": func() { writeGamma(&w, 0) },
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

func TestEntropyBound(t *testing.T) {
	// Region with uniform delta lengths has zero entropy per delta.
	r := mustRuns(t, h3, []region.Run{rn(1, 1), rn(3, 3), rn(5, 5), rn(7, 7)})
	// Deltas: gap1 run1 gap1 run1 gap1 run1 gap1 run1 — all length 1.
	if h := EntropyBitsPerDelta(r); h != 0 {
		t.Errorf("uniform deltas entropy = %v, want 0", h)
	}
	// Two equally likely lengths -> 1 bit per delta.
	r2 := mustRuns(t, h3, []region.Run{rn(2, 3), rn(6, 7), rn(10, 11)})
	// Deltas: gap2 run2 gap2 run2 gap2 run2: all length 2 -> entropy 0.
	if h := EntropyBitsPerDelta(r2); h != 0 {
		t.Errorf("entropy = %v, want 0", h)
	}
	r3 := mustRuns(t, h3, []region.Run{rn(1, 2), rn(4, 4)})
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
	r := mustRuns(t, h3, []region.Run{rn(1, 2), rn(4, 4)})
	h := DeltaHistogram(r)
	if h[1] != 3 || h[2] != 1 || len(h) != 2 {
		t.Errorf("histogram = %v", h)
	}
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
