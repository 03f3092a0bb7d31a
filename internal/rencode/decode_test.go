package rencode

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"qbism/internal/atlas"
	"qbism/internal/bitio"
	"qbism/internal/region"
	"qbism/internal/sfc"
	"qbism/internal/synth"
	"qbism/internal/volume"
)

// Differential coverage for the one-pass decoder: the rank-directed
// recursive walk Region used before it is kept here as the oracle, and
// the cursor walk must reproduce its run list exactly — on generated
// regions of every curve shape and depth, and on every checked-in fuzz
// input. The allocation budgets and the decode benchmarks live here
// too.

// oracleRuns materializes a parsed probe's run list the way the probe
// did before the cursor walk of RunsInto: recursive, one k3Bit per
// slot, a one-shot rank₁ (bitio.Rank1) per gray node.
func oracleRuns(p *K3Probe) []region.Run {
	switch p.root {
	case k3Empty:
		return nil
	case k3Full:
		return []region.Run{{Lo: 0, Hi: p.curve.Length() - 1}}
	}
	var runs []region.Run
	emit := func(lo, hi uint64) {
		if n := len(runs); n > 0 && runs[n-1].Hi+1 == lo {
			runs[n-1].Hi = hi
			return
		}
		runs = append(runs, region.Run{Lo: lo, Hi: hi})
	}
	var rec func(lvl, groupBase int, base uint64)
	rec = func(lvl, groupBase int, base uint64) {
		lv := &p.levels[lvl-1]
		span := uint64(1) << uint(p.dim*(p.bits-lvl))
		for c := 0; c < p.degree; c++ {
			j := groupBase + c
			cb := base + uint64(c)*span
			if k3Bit(lv.f, j) {
				emit(cb, cb+span-1)
			} else if lv.m != nil && k3Bit(lv.m, j) {
				rec(lvl+1, p.degree*bitio.Rank1(lv.m, j), cb)
			}
		}
	}
	rec(1, 0, 0)
	return runs
}

// checkAgainstOracle asserts Decode and K3Probe.RunsInto both reproduce
// the oracle's run list for one accepted k³ encoding.
func checkAgainstOracle(t *testing.T, ctx string, blob []byte) {
	t.Helper()
	p, err := ParseK3(blob)
	if err != nil {
		t.Fatalf("%s: ParseK3: %v", ctx, err)
	}
	want := oracleRuns(p)
	viaProbe, err := probeRegion(p)
	if err != nil {
		t.Fatalf("%s: RunsInto: %v", ctx, err)
	}
	viaDecode, err := Decode(blob)
	if err != nil {
		t.Fatalf("%s: Decode: %v", ctx, err)
	}
	for name, got := range map[string]*region.Region{"K3Probe.RunsInto": viaProbe, "Decode": viaDecode} {
		runs := got.RunsView()
		if len(runs) != len(want) {
			t.Fatalf("%s: %s has %d runs, oracle %d", ctx, name, len(runs), len(want))
		}
		for i := range runs {
			if runs[i] != want[i] {
				t.Fatalf("%s: %s run %d is %v, oracle %v", ctx, name, i, runs[i], want[i])
			}
		}
	}
}

// genOnCurve builds a random region on c: a few hundred random runs at
// most, short enough that small grids stay mixed.
func genOnCurve(rng *rand.Rand, c sfc.Curve) *region.Region {
	n := c.Length()
	nruns := 1 + rng.Intn(1+int(min(n/4, 300)))
	runs := make([]region.Run, nruns)
	for i := range runs {
		lo := rng.Uint64() % n
		hi := min(lo+rng.Uint64()%(1+n/64), n-1)
		runs[i] = region.Run{Lo: lo, Hi: hi}
	}
	r, err := region.FromRuns(c, runs)
	if err != nil {
		panic(err)
	}
	return r
}

// TestDecodeMatchesOracle: 2D and 3D curves of every kind at every
// depth 1–7, with the shapes that stress the walk's edges — empty, full,
// one voxel, the last id alone, every other voxel — plus random regions
// from this file's and prop_test's generators.
func TestDecodeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	check := func(ctx string, r *region.Region) {
		t.Helper()
		blob, err := Encode(K3Tree, r)
		if err != nil {
			t.Fatalf("%s: encode: %v", ctx, err)
		}
		checkAgainstOracle(t, ctx, blob)
		if dec, _ := Decode(blob); !dec.Equal(r) {
			t.Fatalf("%s: round trip changed the region", ctx)
		}
	}
	for _, kind := range []sfc.Kind{sfc.Hilbert, sfc.ZOrder, sfc.Scanline} {
		for dim := 2; dim <= 3; dim++ {
			for nbits := 1; nbits <= 7; nbits++ {
				c := sfc.MustNew(kind, dim, nbits)
				n := c.Length()
				ctx := fmt.Sprintf("%v %dD bits %d", kind, dim, nbits)
				var alternating []region.Run
				for id := uint64(0); id < n; id += 2 {
					alternating = append(alternating, region.Run{Lo: id, Hi: id})
				}
				shapes := map[string][]region.Run{
					"empty":       nil,
					"full":        {{Lo: 0, Hi: n - 1}},
					"first voxel": {{Lo: 0, Hi: 0}},
					"one voxel":   {{Lo: n / 3, Hi: n / 3}},
					"last id":     {{Lo: n - 1, Hi: n - 1}},
					"all but one": {{Lo: 1, Hi: n - 1}},
					"alternating": alternating,
				}
				for name, runs := range shapes {
					r, err := region.FromRuns(c, runs)
					if err != nil {
						t.Fatal(err)
					}
					check(ctx+" "+name, r)
				}
				for i := 0; i < 12; i++ {
					check(ctx+" random", genOnCurve(rng, c))
				}
			}
		}
	}
	for i := 0; i < 300; i++ {
		check("genRegion", genRegion(rng))
		check("genRegion2D", genRegion2D(rng))
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
		out[filepath.Join(target, filepath.Base(f))] = []byte(s)
	}
	return out
}

// corpusAccepted records which checked-in fuzz inputs Decode accepts;
// everything else it rejects. The line is where the one-pass decoder
// drew it, but for the inputs in package zoo's codecs — the δ, Golomb,
// varint and octant seeds, accepted until the codecs left this package,
// and the two crashers — which this package refuses by their method
// byte. Package zoo keeps copies of them under their old verdicts.
var corpusAccepted = map[string]bool{
	"FuzzDecodeK3/seed_2d":        true,
	"FuzzDecodeK3/seed_blocks":    true,
	"FuzzDecodeK3/seed_empty":     true,
	"FuzzDecodeK3/seed_full":      true,
	"FuzzDecodeK3/seed_sparse":    true,
	"FuzzDecodeRegion/seed_elias": true,
	"FuzzDecodeRegion/seed_naive": true,
}

// TestFuzzCorpusVerdictsUnchanged: over both checked-in corpora, what
// Decode accepts and rejects is what it was, every rejection is a typed
// ErrCorrupt, ParseK3 agrees with Decode on k³ inputs, and every
// accepted k³ input decodes to the oracle's runs.
func TestFuzzCorpusVerdictsUnchanged(t *testing.T) {
	for _, target := range []string{"FuzzDecodeK3", "FuzzDecodeRegion"} {
		for name, data := range fuzzCorpus(t, target) {
			dec, err := Decode(data)
			if (err == nil) != corpusAccepted[name] {
				t.Errorf("%s: accepted=%v, was %v (err %v)", name, err == nil, corpusAccepted[name], err)
				continue
			}
			if err != nil && !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: rejection is not ErrCorrupt: %v", name, err)
			}
			if m, ok := MethodOf(data); !ok || m != K3Tree {
				continue
			}
			_, perr := ParseK3(data)
			if (perr == nil) != (err == nil) {
				t.Errorf("%s: ParseK3 err %v, Decode err %v", name, perr, err)
			}
			if perr != nil && !errors.Is(perr, ErrCorrupt) {
				t.Errorf("%s: ParseK3 rejection is not ErrCorrupt: %v", name, perr)
			}
			if err == nil {
				checkAgainstOracle(t, name, data)
				checkRunInvariants(t, dec, name)
			}
		}
	}
}

// TestDecodeNormalizesHandWrittenRuns: a naive payload that lists its
// runs out of order, overlapping or adjacent is reachable only by hand,
// and still decodes to the normalized region; inverted and out-of-range
// runs are still refused. Package zoo's test holds the octant payloads
// to the same.
func TestDecodeNormalizesHandWrittenRuns(t *testing.T) {
	c := sfc.MustNew(sfc.Hilbert, 3, 3)
	naive := func(runs ...region.Run) []byte {
		blob := []byte{Naive.code(), byte(c.Kind()), 3, 3, 0, 0, 0, 0, 0, 0, 0, byte(len(runs))}
		for _, r := range runs {
			blob = append(blob, 0, 0, byte(r.Lo>>8), byte(r.Lo), 0, 0, byte(r.Hi>>8), byte(r.Hi))
		}
		return blob
	}
	want := mustRuns(t, c, []region.Run{rn(2, 20), rn(30, 31)})
	for name, blob := range map[string][]byte{
		"unsorted":    naive(rn(30, 31), rn(2, 20)),
		"overlapping": naive(rn(2, 12), rn(8, 20), rn(30, 31)),
		"adjacent":    naive(rn(2, 9), rn(10, 20), rn(30, 30), rn(31, 31)),
		"duplicate":   naive(rn(2, 20), rn(2, 20), rn(30, 31)),
		"normalized":  naive(rn(2, 20), rn(30, 31)),
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
		"lo > hi":      naive(rn(9, 2)),
		"out of range": naive(rn(2, 512)),
	} {
		if _, err := Decode(blob); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

// benchRegions builds the two region sizes the server decodes per
// request, at Bits 6 from the synthetic corpus: an atlas structure
// (ntal1) and one intensity band of a warped PET study.
var benchRegions = sync.OnceValues(func() (structure, band *region.Region) {
	c := sfc.MustNew(sfc.Hilbert, 3, 6)
	a, err := atlas.Build(c, false)
	if err != nil {
		panic(err)
	}
	st, err := a.ByName("ntal1")
	if err != nil {
		panic(err)
	}
	raw, err := synth.Generate(synth.Params{StudyID: 1, PatientID: 1, Modality: synth.PET, Seed: 1993, AtlasSide: 64})
	if err != nil {
		panic(err)
	}
	scan, _, err := raw.WarpToAtlas(64)
	if err != nil {
		panic(err)
	}
	vol, err := volume.FromScanline(c, scan)
	if err != nil {
		panic(err)
	}
	bands, err := vol.UniformBands(32)
	if err != nil {
		panic(err)
	}
	band = bands[0].Region
	for _, b := range bands[1:] {
		if b.Region.NumRuns() > band.NumRuns() {
			band = b.Region
		}
	}
	return st.Region, band
})

// scatter builds a region of exactly n single-voxel runs, evenly spaced
// on a 128³ Hilbert curve.
func scatter(t testing.TB, n int) *region.Region {
	c := sfc.MustNew(sfc.Hilbert, 3, 7)
	runs := make([]region.Run, n)
	step := c.Length() / uint64(n)
	for i := range runs {
		runs[i] = region.Run{Lo: uint64(i) * step, Hi: uint64(i) * step}
	}
	r, err := region.FromRuns(c, runs)
	if err != nil || r.NumRuns() != n {
		t.Fatalf("scatter(%d): %d runs, %v", n, r.NumRuns(), err)
	}
	return r
}

// decodeRoom returns the room DecodeInto's doc promises to decode data
// in: the run count for Naive, one more than half the delta count for
// Elias, and K3Probe.RunsInto's bound for a k³-tree.
func decodeRoom(data []byte) (int, error) {
	curve, count, body, err := Header(data)
	if err != nil {
		return 0, err
	}
	switch methodOfCode(data[0]) {
	case Naive:
		if count > uint64(len(body))/8 {
			return 0, fmt.Errorf("%w: naive body truncated", ErrCorrupt)
		}
		return int(count), nil
	case Elias:
		if count > uint64(len(body))*8 {
			return 0, fmt.Errorf("%w: %d deltas in a %d-byte body", ErrCorrupt, count, len(body))
		}
		return int(count/2 + 1), nil
	case K3Tree:
		var p K3Probe
		if err := p.parseBody(curve, count, body); err != nil {
			return 0, err
		}
		return p.maxRuns(), nil
	}
	return 0, nil
}

// checkDecodeInto holds DecodeInto to Decode's verdict dec, err on data:
// decoded into a Region that held another REGION, with a buffer of
// decodeRoom(data), it must fail where Decode fails and leave the
// Region as it was, and otherwise yield Decode's region with its run list
// in the buffer.
func checkDecodeInto(t *testing.T, data []byte, dec *region.Region, err error) {
	t.Helper()
	held, herr := region.FromRuns(sfc.MustNew(sfc.ZOrder, 2, 2), []region.Run{{Lo: 1, Hi: 2}})
	if herr != nil {
		t.Fatal(herr)
	}
	before := held.String()
	room, rerr := decodeRoom(data)
	if err == nil && rerr != nil {
		t.Fatalf("Decode accepted what decodeRoom refused: %v", rerr)
	}
	buf := make([]region.Run, max(room, 0))
	ierr := DecodeInto(held, data, buf)
	switch {
	case (err == nil) != (ierr == nil):
		t.Fatalf("Decode error %v, DecodeInto error %v", err, ierr)
	case err != nil:
		if held.String() != before || held.RunsView()[0] != (region.Run{Lo: 1, Hi: 2}) {
			t.Fatalf("a failed DecodeInto changed its Region to %v", held)
		}
	case !regionsEqual(held, dec):
		t.Fatalf("DecodeInto = %v, Decode = %v", held.RunsView(), dec.RunsView())
	case held.NumRuns() > 0 && room > 0 && &held.RunsView()[0] != &buf[0]:
		t.Fatalf("%v DecodeInto built its %d runs outside a buffer with room for %d", methodOfCode(data[0]), held.NumRuns(), room)
	}
}

// TestDecodeIntoMatchesDecode: for every method, on generated regions of
// several curve shapes, DecodeInto with decodeRoom's room, with one run
// less and with none equals Decode, and on the encoding cut short it
// reaches Decode's verdict.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	curves := []sfc.Curve{sfc.MustNew(sfc.Hilbert, 3, 4), sfc.MustNew(sfc.ZOrder, 3, 3), sfc.MustNew(sfc.Hilbert, 2, 5)}
	for _, m := range Methods {
		for _, c := range curves {
			for i := 0; i < 10; i++ {
				r := genOnCurve(rng, c)
				data, err := Encode(m, r)
				if err != nil {
					t.Fatal(err)
				}
				dec, err := Decode(data)
				if err != nil {
					t.Fatal(err)
				}
				checkDecodeInto(t, data, dec, nil)
				room, err := decodeRoom(data)
				if err != nil {
					t.Fatal(err)
				}
				for _, buf := range [][]region.Run{make([]region.Run, max(room-1, 0)), nil} {
					var into region.Region
					if err := DecodeInto(&into, data, buf); err != nil || !regionsEqual(&into, dec) {
						t.Fatalf("%v, %d-run buffer: DecodeInto = %v, %v; Decode = %v", m, len(buf), into.RunsView(), err, dec.RunsView())
					}
				}
				tdec, terr := Decode(data[:len(data)-1])
				checkDecodeInto(t, data[:len(data)-1], tdec, terr)
			}
		}
	}
}

// TestDecodeAllocBudget pins what a decode may allocate — the curve,
// the run list and the Region, and for ParseK3 the probe and its level
// table — and that none of it grows with the run count. DecodeInto a
// buffer with room allocates nothing, for every method: a k³-tree's
// level table is on the stack, and the wire's γ-code reader too. A
// probe parsed again, and its point and coverage probes, allocate
// nothing either.
func TestDecodeAllocBudget(t *testing.T) {
	for _, n := range []int{200, 20000} {
		r := scatter(t, n)
		k3, err := Encode(K3Tree, r)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := Encode(Naive, r)
		if err != nil {
			t.Fatal(err)
		}
		elias, err := Encode(Elias, r)
		if err != nil {
			t.Fatal(err)
		}
		var into region.Region
		buf := make([]region.Run, n)
		var probe K3Probe
		if err := probe.Parse(k3); err != nil {
			t.Fatal(err)
		}
		runs := r.RunsView()
		for _, tc := range []struct {
			name   string
			budget float64
			run    func() error
		}{
			{"k3 Decode", 4, func() error { _, err := Decode(k3); return err }},
			{"ParseK3", 2, func() error { _, err := ParseK3(k3); return err }},
			{"Parse into a used probe", 0, func() error { return probe.Parse(k3) }},
			{"ContainsID", 0, func() error {
				if !probe.ContainsID(runs[n/2].Lo) {
					return errors.New("a member not contained")
				}
				return nil
			}},
			{"CoversRuns", 0, func() error {
				if !probe.CoversRuns(runs) {
					return errors.New("the region does not cover itself")
				}
				return nil
			}},
			{"naive Decode", 4, func() error { _, err := Decode(naive); return err }},
			{"elias Decode", 4, func() error { _, err := Decode(elias); return err }},
			// Into a buffer with room; the level table is on the stack.
			{"k3 DecodeInto", 0, func() error { return DecodeInto(&into, k3, buf) }},
			{"naive DecodeInto", 0, func() error { return DecodeInto(&into, naive, buf) }},
			// The bit reader stays on the stack.
			{"elias DecodeInto", 0, func() error { return DecodeInto(&into, elias, buf) }},
		} {
			var failed error
			got := testing.AllocsPerRun(20, func() {
				if err := tc.run(); err != nil {
					failed = err
				}
			})
			if failed != nil {
				t.Fatalf("%s, %d runs: %v", tc.name, n, failed)
			}
			t.Logf("%s, %d runs: %.0f allocs", tc.name, n, got)
			if got > tc.budget {
				t.Errorf("%s, %d runs: %.0f allocs, budget %.0f", tc.name, n, got, tc.budget)
			}
		}
	}
}

var sinkRegion *region.Region

func benchDecode(b *testing.B, m Method, parseOnly bool) {
	structure, band := benchRegions()
	for _, tc := range []struct {
		name string
		r    *region.Region
	}{{"structure", structure}, {"band", band}} {
		blob, err := Encode(m, tc.r)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s-%druns", tc.name, tc.r.NumRuns()), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(blob)))
			for i := 0; i < b.N; i++ {
				if parseOnly {
					p, err := ParseK3(blob)
					if err != nil {
						b.Fatal(err)
					}
					sinkBool = p.root == k3Empty
					continue
				}
				r, err := Decode(blob)
				if err != nil {
					b.Fatal(err)
				}
				sinkRegion = r
			}
		})
	}
}

// BenchmarkDecodeK3 is the server's per-request REGION materialization:
// validating parse plus the one-pass walk.
func BenchmarkDecodeK3(b *testing.B) { benchDecode(b, K3Tree, false) }

// BenchmarkParseK3 is what a probe costs before its first question:
// the validating parse, which builds the level table and nothing else.
func BenchmarkParseK3(b *testing.B) { benchDecode(b, K3Tree, true) }

// BenchmarkDecodeNaive is the run-list representation's decode: read
// the pairs, check them, adopt the list.
func BenchmarkDecodeNaive(b *testing.B) { benchDecode(b, Naive, false) }
