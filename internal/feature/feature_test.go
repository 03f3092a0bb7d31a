package feature

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"qbism/internal/region"
	"qbism/internal/sfc"
	"qbism/internal/volume"
)

var h3 = sfc.MustNew(sfc.Hilbert, 3, 4)

func dataRegionWith(t *testing.T, f func(p sfc.Point) uint8) *volume.DataRegion {
	t.Helper()
	v := volume.FromFunc(h3, f)
	d, err := volume.Extract(v, region.Full(h3))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestExtractConstantField(t *testing.T) {
	d := dataRegionWith(t, func(p sfc.Point) uint8 { return 100 })
	v, err := Extract(d)
	if err != nil {
		t.Fatal(err)
	}
	// All mass in bin 100*16/256 = 6.
	if v[6] != 1.0 {
		t.Errorf("bin 6 = %v, want 1", v[6])
	}
	if math.Abs(v[HistBins]-100.0/255) > 1e-9 {
		t.Errorf("mean feature = %v", v[HistBins])
	}
	if v[HistBins+1] != 0 {
		t.Errorf("std feature = %v, want 0", v[HistBins+1])
	}
	if v[HistBins+2] != 0 {
		t.Errorf("skew feature = %v, want 0", v[HistBins+2])
	}
}

func TestExtractEmptyErrors(t *testing.T) {
	d := &volume.DataRegion{Region: region.Empty(h3)}
	if _, err := Extract(d); err == nil {
		t.Error("empty region accepted")
	}
}

func TestDistanceProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var a, b, c Vector
		for i := range a {
			a[i], b[i], c[i] = rng.Float64(), rng.Float64(), rng.Float64()
		}
		// Identity, symmetry, triangle inequality.
		if Distance(a, a) != 0 {
			return false
		}
		if math.Abs(Distance(a, b)-Distance(b, a)) > 1e-12 {
			return false
		}
		return Distance(a, c) <= Distance(a, b)+Distance(b, c)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSimilarFieldsAreClose(t *testing.T) {
	base := dataRegionWith(t, func(p sfc.Point) uint8 { return uint8(p.X * 10) })
	similar := dataRegionWith(t, func(p sfc.Point) uint8 {
		v := int(p.X)*10 + 3
		if v > 255 {
			v = 255
		}
		return uint8(v)
	})
	different := dataRegionWith(t, func(p sfc.Point) uint8 { return 255 - uint8(p.X*10) })
	vb, _ := Extract(base)
	vs, _ := Extract(similar)
	vd, _ := Extract(different)
	if Distance(vb, vs) >= Distance(vb, vd) {
		t.Errorf("similar field (%v) not closer than different field (%v)",
			Distance(vb, vs), Distance(vb, vd))
	}
}

func randomItems(rng *rand.Rand, n int) []Item {
	items := make([]Item, n)
	for i := range items {
		var v Vector
		for j := range v {
			v[j] = rng.Float64()
		}
		items[i] = Item{ID: int64(i), Vec: v}
	}
	return items
}

func TestVPTreeMatchesLinear(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200) + 1
		items := randomItems(rng, n)
		ref := append([]Item(nil), items...)
		tree := Build(items)
		if tree.size != n {
			return false
		}
		var q Vector
		for j := range q {
			q[j] = rng.Float64()
		}
		k := rng.Intn(10) + 1
		got, _ := tree.Nearest(q, k)
		want := NearestLinear(ref, q, k)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			// Distances must agree; IDs may differ only on exact ties.
			if math.Abs(got[i].Distance-want[i].Distance) > 1e-12 {
				return false
			}
		}
		// Results sorted ascending.
		for i := 1; i < len(got); i++ {
			if got[i].Distance < got[i-1].Distance {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestVPTreePrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Clustered data makes pruning effective.
	items := make([]Item, 0, 2000)
	for i := 0; i < 2000; i++ {
		var v Vector
		base := float64(i%4) * 10
		for j := range v {
			v[j] = base + rng.Float64()*0.1
		}
		items = append(items, Item{ID: int64(i), Vec: v})
	}
	tree := Build(items)
	q := items[0].Vec
	_, st := tree.Nearest(q, 3)
	if st.DistanceComputed >= st.LinearEquivalents {
		t.Errorf("no pruning: %d distances for %d items", st.DistanceComputed, st.LinearEquivalents)
	}
	t.Logf("vp-tree: %d/%d distances computed, %d subtrees pruned",
		st.DistanceComputed, st.LinearEquivalents, st.CandidatesPruned)
}

func TestVPTreeEdgeCases(t *testing.T) {
	empty := Build(nil)
	if got, _ := empty.Nearest(Vector{}, 5); got != nil {
		t.Error("empty tree returned matches")
	}
	one := Build([]Item{{ID: 7}})
	got, _ := one.Nearest(Vector{}, 5)
	if len(got) != 1 || got[0].ID != 7 {
		t.Errorf("single-item tree: %v", got)
	}
	if got, _ := one.Nearest(Vector{}, 0); got != nil {
		t.Error("k=0 returned matches")
	}
}

func BenchmarkVPTreeNearest(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	items := randomItems(rng, 5000)
	tree := Build(items)
	var q Vector
	for j := range q {
		q[j] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Nearest(q, 5)
	}
}

func BenchmarkLinearNearest(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	items := randomItems(rng, 5000)
	var q Vector
	for j := range q {
		q[j] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NearestLinear(items, q, 5)
	}
}
