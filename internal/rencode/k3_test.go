package rencode

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"qbism/internal/region"
	"qbism/internal/sfc"
)

// TestMethodsExhaustive pins the Method enum to its supporting tables:
// every method in Methods appears once, has a real String() name (no
// Method(%d) fall-through) and a method byte of its own, MethodOf
// declares exactly those bytes — package zoo's, and every other, are
// not this package's — and each method round-trips Encode→Decode
// byte-identically.
func TestMethodsExhaustive(t *testing.T) {
	names := map[string]Method{}
	codes := map[byte]Method{}
	for _, m := range Methods {
		name := m.String()
		if strings.HasPrefix(name, "Method(") {
			t.Errorf("String() does not cover method %d", int(m))
		}
		if prev, dup := names[name]; dup {
			t.Errorf("methods %v and %v share the name %q", prev, m, name)
		}
		names[name] = m
		if prev, dup := codes[m.code()]; dup {
			t.Errorf("methods %v and %v share the method byte %d", prev, m, m.code())
		}
		codes[m.code()] = m
	}
	for b := 0; b < 256; b++ {
		got, ok := MethodOf([]byte{byte(b)})
		if want, served := codes[byte(b)]; ok != served || got != want {
			t.Errorf("MethodOf(byte %d) = %v, %v; want %v, %v", b, got, ok, want, served)
		}
	}

	// Byte-identical round trip for every method over a deterministic
	// suite of regions (empty, full, and seeded random shapes).
	rng := rand.New(rand.NewSource(93))
	c := sfc.MustNew(sfc.Hilbert, 3, 3)
	suite := []*region.Region{region.Empty(c), region.Full(c)}
	for i := 0; i < 20; i++ {
		suite = append(suite, genRegion(rng))
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
			if err != nil {
				t.Fatalf("%v: decode: %v", m, err)
			}
			if !dec.Equal(r) {
				t.Fatalf("%v: round trip changed the region", m)
			}
			again, err := Encode(m, dec)
			if err != nil {
				t.Fatalf("%v: re-encode: %v", m, err)
			}
			if !bytes.Equal(blob, again) {
				t.Fatalf("%v: re-encode not byte-identical", m)
			}
		}
	}
}

// genRegion2D is genRegion on a 2D curve, exercising the degree-4
// (quadtree) shape of the codec.
func genRegion2D(rng *rand.Rand) *region.Region {
	kinds := []sfc.Kind{sfc.Hilbert, sfc.ZOrder, sfc.Scanline}
	bits := 2 + rng.Intn(4)
	c := sfc.MustNew(kinds[rng.Intn(len(kinds))], 2, bits)
	n := c.Length()
	var runs []region.Run
	nruns := rng.Intn(10)
	for i := 0; i < nruns; i++ {
		lo := rng.Uint64() % n
		hi := lo + rng.Uint64()%20
		if hi >= n {
			hi = n - 1
		}
		runs = append(runs, region.Run{Lo: lo, Hi: hi})
	}
	r, err := region.FromRuns(c, runs)
	if err != nil {
		panic(err)
	}
	return r
}

// TestK3ProbeAgainstOracleProperty is the satellite property test:
// for seeded random regions (3D and 2D), every probe answer on the
// encoded bytes must match the decoded-run-list oracle — ContainsID
// for every position on the curve, CoversRuns on random intervals and
// run lists (checkCoversRuns), and IntersectRunsInto against
// region.Intersect.
func TestK3ProbeAgainstOracleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8861))
	for i := 0; i < 120; i++ {
		r := genRegion(rng)
		if i%3 == 0 {
			r = genRegion2D(rng)
		}
		blob, err := Encode(K3Tree, r)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ParseK3(blob)
		if err != nil {
			t.Fatalf("iter %d: ParseK3: %v", i, err)
		}
		if p.NumVoxels() != r.NumVoxels() || (p.root == k3Empty) != r.Empty() {
			t.Fatalf("iter %d: NumVoxels/Empty mismatch", i)
		}
		c := r.Curve()
		if p.Curve().Kind() != c.Kind() || p.Curve().Dim() != c.Dim() || p.Curve().Bits() != c.Bits() {
			t.Fatalf("iter %d: curve mismatch", i)
		}
		n := c.Length()
		for id := uint64(0); id < n; id++ {
			if p.ContainsID(id) != r.ContainsID(id) {
				t.Fatalf("iter %d: ContainsID(%d) = %v, oracle %v", i, id, p.ContainsID(id), r.ContainsID(id))
			}
		}
		if p.ContainsID(n) || p.ContainsID(n+100) {
			t.Fatalf("iter %d: ContainsID past the curve", i)
		}
		for probe := 0; probe < 40; probe++ {
			lo := rng.Uint64() % n
			hi := lo + rng.Uint64()%32
			if hi >= n {
				hi = n - 1
			}
			wantAll := true
			for id := lo; id <= hi; id++ {
				wantAll = wantAll && r.ContainsID(id)
			}
			if got := p.CoversRuns([]region.Run{{Lo: lo, Hi: hi}}); got != wantAll {
				t.Fatalf("iter %d: CoversRuns([%d,%d]) = %v, oracle %v", i, lo, hi, got, wantAll)
			}
		}
		checkCoversRuns(t, fmt.Sprintf("iter %d", i), rng, p, r)
		// Intersection with a second random region on the same curve,
		// against the set-op oracle.
		other := genSameCurve(rng, c)
		oracle, err := region.Intersect(r, other)
		if err != nil {
			t.Fatal(err)
		}
		got := p.IntersectRunsInto(other.Runs(), nil)
		want := oracle.Runs()
		if len(got) != len(want) {
			t.Fatalf("iter %d: IntersectRunsInto %d runs, oracle %d", i, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("iter %d: IntersectRunsInto run %d = %v, oracle %v", i, k, got[k], want[k])
			}
		}
		// Materializing the probe must equal the decode.
		mat, err := probeRegion(p)
		if err != nil {
			t.Fatal(err)
		}
		if !mat.Equal(r) {
			t.Fatalf("iter %d: RunsInto differs from the original", i)
		}
	}
}

// checkCoversRuns holds p.CoversRuns to region.Contains of r, the region
// p encodes, over run lists that stress the sweep: r's own runs, random
// pieces of them (covered), those pieces with one run grown by a
// position at either end (covered only where r goes on), and a random
// list on the curve.
func checkCoversRuns(t *testing.T, ctx string, rng *rand.Rand, p *K3Probe, r *region.Region) {
	t.Helper()
	c := r.Curve()
	var pieces []region.Run
	for _, run := range r.RunsView() {
		if rng.Intn(3) == 0 {
			continue
		}
		lo := run.Lo + rng.Uint64()%(run.Hi-run.Lo+1)
		pieces = append(pieces, region.Run{Lo: lo, Hi: lo + rng.Uint64()%(run.Hi-lo+1)})
	}
	lists := [][]region.Run{r.RunsView(), pieces, genSameCurve(rng, c).RunsView()}
	for k := range pieces {
		grown := slices.Clone(pieces)
		if grown[k].Lo > 0 {
			grown[k].Lo--
			lists = append(lists, grown)
		}
		grown = slices.Clone(pieces)
		if grown[k].Hi < c.Length()-1 {
			grown[k].Hi++
			lists = append(lists, grown)
		}
	}
	for _, runs := range lists {
		b, err := region.FromRuns(c, runs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := region.Contains(r, b)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.CoversRuns(b.RunsView()); got != want {
			t.Fatalf("%s: CoversRuns(%v) = %v, region.Contains %v", ctx, b.RunsView(), got, want)
		}
	}
}

// probeRegion materializes a probe's run list as a Region.
func probeRegion(p *K3Probe) (*region.Region, error) {
	return region.FromOwnedRuns(p.Curve(), p.RunsInto(nil))
}

// genSameCurve builds a random region on an existing curve.
func genSameCurve(rng *rand.Rand, c sfc.Curve) *region.Region {
	n := c.Length()
	var runs []region.Run
	nruns := rng.Intn(10)
	for i := 0; i < nruns; i++ {
		lo := rng.Uint64() % n
		hi := lo + rng.Uint64()%24
		if hi >= n {
			hi = n - 1
		}
		runs = append(runs, region.Run{Lo: lo, Hi: hi})
	}
	r, err := region.FromRuns(c, runs)
	if err != nil {
		panic(err)
	}
	return r
}

func TestK3EmptyFullProbes(t *testing.T) {
	c := sfc.MustNew(sfc.Hilbert, 3, 4)
	for _, tc := range []struct {
		name string
		r    *region.Region
		in   bool
	}{
		{"empty", region.Empty(c), false},
		{"full", region.Full(c), true},
	} {
		blob, err := Encode(K3Tree, tc.r)
		if err != nil {
			t.Fatal(err)
		}
		if len(blob) != HeaderLen+1 {
			t.Errorf("%s: %d bytes, want header+1", tc.name, len(blob))
		}
		p, err := ParseK3(blob)
		if err != nil {
			t.Fatal(err)
		}
		if p.ContainsID(17) != tc.in || p.CoversRuns([]region.Run{{Lo: 3, Hi: 9}}) != tc.in || !p.CoversRuns(nil) {
			t.Errorf("%s: probe answers wrong", tc.name)
		}
		runs := p.IntersectRunsInto([]region.Run{{Lo: 5, Hi: 9}}, nil)
		if tc.in && (len(runs) != 1 || runs[0] != (region.Run{Lo: 5, Hi: 9})) {
			t.Errorf("full: IntersectRunsInto = %v", runs)
		}
		if !tc.in && runs != nil {
			t.Errorf("empty: IntersectRunsInto = %v", runs)
		}
	}
}

func TestK3ProbeRangeEdges(t *testing.T) {
	c := sfc.MustNew(sfc.ZOrder, 3, 3)
	r, err := region.FromRuns(c, []region.Run{{Lo: 10, Hi: 20}, {Lo: 100, Hi: 100}})
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := Encode(K3Tree, r)
	p, err := ParseK3(blob)
	if err != nil {
		t.Fatal(err)
	}
	n := c.Length()
	covers := func(runs ...region.Run) bool { return p.CoversRuns(runs) }
	if !covers() {
		t.Error("no runs not covered (vacuous truth)")
	}
	if covers(region.Run{Lo: 99, Hi: n + 500}) || covers(region.Run{Lo: 10, Hi: 20}, region.Run{Lo: n, Hi: n}) {
		t.Error("a run past the curve covered")
	}
	if covers(region.Run{Lo: 10, Hi: 21}) || !covers(region.Run{Lo: 10, Hi: 20}) || !covers(region.Run{Lo: 100, Hi: 100}) {
		t.Error("coverage at run boundaries wrong")
	}
	if !covers(region.Run{Lo: 10, Hi: 20}, region.Run{Lo: 100, Hi: 100}) || !covers(region.Run{Lo: 12, Hi: 12}, region.Run{Lo: 14, Hi: 20}, region.Run{Lo: 100, Hi: 100}) {
		t.Error("a covered run list not covered")
	}
	if covers(region.Run{Lo: 10, Hi: 20}, region.Run{Lo: 99, Hi: 100}) || covers(region.Run{Lo: 9, Hi: 9}, region.Run{Lo: 100, Hi: 100}) {
		t.Error("a run list with one uncovered position covered")
	}
}

func TestParseK3Rejects(t *testing.T) {
	c := sfc.MustNew(sfc.Hilbert, 3, 3)
	r, err := region.FromRuns(c, []region.Run{{Lo: 3, Hi: 77}, {Lo: 200, Hi: 300}})
	if err != nil {
		t.Fatal(err)
	}
	elias, _ := Encode(Elias, r)
	if _, err := ParseK3(elias); err == nil {
		t.Error("ParseK3 accepted an elias blob")
	}
	if _, err := ParseK3(nil); err == nil {
		t.Error("ParseK3 accepted nil")
	}
	blob, _ := Encode(K3Tree, r)
	for _, cut := range []int{HeaderLen, HeaderLen + 1, len(blob) - 1} {
		if _, err := ParseK3(blob[:cut]); err == nil {
			t.Errorf("ParseK3 accepted truncation to %d bytes", cut)
		}
	}
	if _, err := ParseK3(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Error("ParseK3 accepted trailing bytes")
	}
	bad := append([]byte(nil), blob...)
	bad[HeaderLen] = 7 // root color
	if _, err := ParseK3(bad); err == nil {
		t.Error("ParseK3 accepted a bad root color")
	}
	bad = append([]byte(nil), blob...)
	bad[11]++ // count low byte
	if _, err := ParseK3(bad); err == nil {
		t.Error("ParseK3 accepted a forged count")
	}
}

// TestK3CheckGroupsFindsEveryBreach plants each breach of canonical
// form — a slot both full and mixed, an all-full group, an all-empty
// group — at every group of a level wide enough for the eight-at-a-time
// check, on 3D and 2D levels, inner and leaf, and wants the breach named.
func TestK3CheckGroupsFindsEveryBreach(t *testing.T) {
	const groups = 22
	for _, degree := range []int{8, 4} {
		full := byte(0xff) << (8 - degree)
		// set writes group g of buf, given as k3Group returns it.
		set := func(buf []byte, g int, v byte) {
			if degree == 8 {
				buf[g] = v
				return
			}
			sh := uint(4 * (g & 1))
			buf[g>>1] = buf[g>>1]&^(0xf0>>sh) | v>>sh
		}
		for _, leaf := range []bool{false, true} {
			level := func() *k3Level {
				lv := &k3Level{n: groups * degree, f: make([]byte, groups*degree/8)}
				if !leaf {
					lv.m = make([]byte, len(lv.f))
				}
				for g := range groups {
					set(lv.f, g, 0x80)
					if !leaf {
						set(lv.m, g, 0x40)
					}
				}
				return lv
			}
			if err := k3CheckGroups(level(), degree, leaf, 2); err != nil {
				t.Fatalf("degree %d leaf %v: a canonical level rejected: %v", degree, leaf, err)
			}
			for g := range groups {
				breaches := map[string]func(lv *k3Level){
					"all-full": func(lv *k3Level) {
						set(lv.f, g, full)
						if !leaf {
							set(lv.m, g, 0)
						}
					},
					"all-empty": func(lv *k3Level) {
						set(lv.f, g, 0)
						if !leaf {
							set(lv.m, g, 0)
						}
					},
				}
				if !leaf {
					breaches["both full and mixed"] = func(lv *k3Level) { set(lv.m, g, 0xc0) }
				}
				for want, plant := range breaches {
					lv := level()
					plant(lv)
					err := k3CheckGroups(lv, degree, leaf, 2)
					if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
						t.Errorf("degree %d leaf %v group %d %s: got %v", degree, leaf, g, want, err)
					}
				}
			}
		}
	}
}

var sinkBool bool

// BenchmarkK3PointProbe is the headline number: one ContainsID against
// the encoded bytes (probe reuse), versus decoding the run list first.
func BenchmarkK3PointProbe(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	c := sfc.MustNew(sfc.Hilbert, 3, 6)
	r := genSameCurve(rng, c)
	blob, err := Encode(K3Tree, r)
	if err != nil {
		b.Fatal(err)
	}
	p, err := ParseK3(blob)
	if err != nil {
		b.Fatal(err)
	}
	n := c.Length()
	b.ReportAllocs()
	b.ResetTimer()
	v := false
	for i := 0; i < b.N; i++ {
		v = p.ContainsID(uint64(i*2654435761) % n)
	}
	sinkBool = v
}

func BenchmarkK3ParseAndProbe(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	c := sfc.MustNew(sfc.Hilbert, 3, 6)
	r := genSameCurve(rng, c)
	blob, _ := Encode(K3Tree, r)
	n := c.Length()
	b.ReportAllocs()
	b.ResetTimer()
	v := false
	for i := 0; i < b.N; i++ {
		p, err := ParseK3(blob)
		if err != nil {
			b.Fatal(err)
		}
		v = p.ContainsID(uint64(i*2654435761) % n)
	}
	sinkBool = v
}

func BenchmarkDecodeThenProbe(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	c := sfc.MustNew(sfc.Hilbert, 3, 6)
	r := genSameCurve(rng, c)
	blob, _ := Encode(Elias, r)
	n := c.Length()
	b.ReportAllocs()
	b.ResetTimer()
	v := false
	for i := 0; i < b.N; i++ {
		dec, err := Decode(blob)
		if err != nil {
			b.Fatal(err)
		}
		v = dec.ContainsID(uint64(i*2654435761) % n)
	}
	sinkBool = v
}

// k3Pair encodes and parses two regions as k³-trees.
func k3Pair(t testing.TB, a, b *region.Region) (*K3Probe, *K3Probe) {
	t.Helper()
	var ps [2]*K3Probe
	for i, r := range []*region.Region{a, b} {
		blob, err := Encode(K3Tree, r)
		if err != nil {
			t.Fatal(err)
		}
		if ps[i], err = ParseK3(blob); err != nil {
			t.Fatal(err)
		}
	}
	return ps[0], ps[1]
}

// checkIntersectK3 asserts that two k³-trees meet as the server meets
// them (medserver's intersect) — one decoded by RunsInto and met by the
// other's walk, IntersectRunsInto, either way round — in
// region.Intersect of the two decoded operands and the oracle's walk of
// the intersection's own k³-tree, run for run; and that, given buffers
// with room, a meeting allocates nothing.
func checkIntersectK3(t *testing.T, ctx string, p, q *K3Probe) {
	t.Helper()
	pr, err := probeRegion(p)
	if err != nil {
		t.Fatal(err)
	}
	qr, err := probeRegion(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := region.Intersect(pr, qr)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := Encode(K3Tree, want)
	if err != nil {
		t.Fatal(err)
	}
	w, err := ParseK3(blob)
	if err != nil {
		t.Fatal(err)
	}
	oracle := oracleRuns(w)
	for name, got := range map[string][]region.Run{"p∩q": meetK3(p, q, nil, nil), "q∩p": meetK3(q, p, nil, nil)} {
		if !slices.Equal(got, want.RunsView()) || !slices.Equal(got, oracle) {
			t.Fatalf("%s: %s = %v, region.Intersect %v, oracle %v", ctx, name, got, want.RunsView(), oracle)
		}
	}
	runs := make([]region.Run, 0, q.maxRuns())
	buf := make([]region.Run, len(want.RunsView()))
	if n := testing.AllocsPerRun(3, func() { meetK3(p, q, runs, buf) }); n > 0 {
		t.Fatalf("%s: the meeting made %.0f allocations into buffers with room, want none", ctx, n)
	}
}

// meetK3 is p ∩ q with q decoded, into runs, and p walked, into buf.
func meetK3(p, q *K3Probe, runs, buf []region.Run) []region.Run {
	return p.IntersectRunsInto(q.RunsInto(runs), buf)
}

// TestK3IntersectK3MatchesOracle is the differential for two k³-trees
// meeting (checkIntersectK3): on 2D and 3D curves of every kind and several
// depths, random pairs and the pairs that stress its cases — an empty
// or full root on either side, disjoint, nested and identical operands
// — intersect to exactly what the run lists do.
func TestK3IntersectK3MatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, kind := range []sfc.Kind{sfc.Hilbert, sfc.ZOrder, sfc.Scanline} {
		for dim := 2; dim <= 3; dim++ {
			for nbits := 1; nbits <= 5; nbits++ {
				c := sfc.MustNew(kind, dim, nbits)
				ctx := fmt.Sprintf("%v %dD bits %d", kind, dim, nbits)
				for i := 0; i < 8; i++ {
					a, b := genOnCurve(rng, c), genOnCurve(rng, c)
					outside, err := region.Complement(a)
					if err != nil {
						t.Fatal(err)
					}
					inside, err := region.Intersect(a, b)
					if err != nil {
						t.Fatal(err)
					}
					for name, pair := range map[string][2]*region.Region{
						"random":    {a, b},
						"empty":     {region.Empty(c), a},
						"full":      {region.Full(c), a},
						"full-full": {region.Full(c), region.Full(c)},
						"disjoint":  {a, outside},
						"nested":    {a, inside},
						"identical": {a, a},
					} {
						p, q := k3Pair(t, pair[0], pair[1])
						checkIntersectK3(t, ctx+" "+name, p, q)
					}
				}
			}
		}
	}
	for i := 0; i < 200; i++ {
		a := genRegion(rng)
		b, err := genRegion(rng).Recode(a.Curve())
		if err != nil {
			continue // another grid
		}
		p, q := k3Pair(t, a, b)
		checkIntersectK3(t, "genRegion", p, q)
	}
}

// sameProbe fails unless got, a probe parsed into memory an earlier
// tree left behind, is the probe a fresh ParseK3 built: the same header
// fields and levels, and the same run list.
func sameProbe(t *testing.T, ctx string, got, want *K3Probe) {
	t.Helper()
	if got.curve != want.curve || got.dim != want.dim || got.bits != want.bits || got.degree != want.degree ||
		got.root != want.root || got.voxels != want.voxels {
		t.Fatalf("%s: reused probe header %v/%d/%d/%d root %d, %d voxels; fresh %v/%d/%d/%d root %d, %d voxels", ctx,
			got.curve, got.dim, got.bits, got.degree, got.root, got.voxels,
			want.curve, want.dim, want.bits, want.degree, want.root, want.voxels)
	}
	if !slices.EqualFunc(got.levels, want.levels, func(a, b k3Level) bool { return reflect.DeepEqual(a, b) }) {
		t.Fatalf("%s: reused probe's levels differ from a fresh parse's", ctx)
	}
	if g, w := got.RunsInto(nil), want.RunsInto(nil); !slices.Equal(g, w) {
		t.Fatalf("%s: reused probe materializes %d runs, fresh %d", ctx, len(g), len(w))
	}
}

// checkRejectedProbe fails unless p is what a rejected Parse leaves: no
// tree, nothing reachable of the input or of an earlier tree.
func checkRejectedProbe(t *testing.T, ctx string, p *K3Probe) {
	t.Helper()
	if p.root != k3Empty || p.NumVoxels() != 0 || p.Curve() != nil || len(p.levels) != 0 {
		t.Fatalf("%s: rejected parse left a usable-looking probe (%d voxels, %d levels)", ctx, p.NumVoxels(), len(p.levels))
	}
	for i, lv := range p.levels[:cap(p.levels)] {
		if lv.f != nil || lv.m != nil {
			t.Fatalf("%s: rejected parse left level %d's bitmaps reachable", ctx, i)
		}
	}
}

// TestK3ParseReuseMatchesFresh parses one tree after another into a
// single probe — deeper and shallower, larger and smaller, 3D and 2D,
// empty and full roots, with rejected inputs between them — and holds
// every accepted one to a fresh ParseK3 of the same bytes. The level
// table an earlier tree grew is reused, never read.
func TestK3ParseReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var blobs [][]byte
	add := func(r *region.Region) {
		blob, err := Encode(K3Tree, r)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	for _, nbits := range []int{1, 3, 5, 7, 6, 4, 2, 7, 1} {
		c := sfc.MustNew(sfc.Hilbert, 3, nbits)
		add(genOnCurve(rng, c))
		add(region.Empty(c))
		add(genOnCurve(rng, c))
		add(region.Full(c))
	}
	for i := 0; i < 40; i++ {
		add(genRegion(rng))
		add(genRegion2D(rng))
	}
	var p K3Probe
	for i, blob := range blobs {
		ctx := fmt.Sprintf("tree %d", i)
		if err := p.Parse(blob); err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		fresh, err := ParseK3(blob)
		if err != nil {
			t.Fatal(err)
		}
		sameProbe(t, ctx, &p, fresh)
		// A corrupt copy of the next tree, then the tree itself: the
		// rejection must not disturb the parse that follows it.
		next := blobs[(i+1)%len(blobs)]
		for _, bad := range [][]byte{next[:len(next)-1], append(slices.Clone(next), 0), next[:HeaderLen-1]} {
			if err := p.Parse(bad); err == nil {
				t.Fatalf("%s: corrupt input accepted", ctx)
			}
			checkRejectedProbe(t, ctx, &p)
		}
	}
}
