package spindex

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func randBox(rng *rand.Rand, side uint32) Box3 {
	x := rng.Uint32() % side
	y := rng.Uint32() % side
	z := rng.Uint32() % side
	return Box3{
		MinX: x, MinY: y, MinZ: z,
		MaxX: x + rng.Uint32()%(side/4), MaxY: y + rng.Uint32()%(side/4), MaxZ: z + rng.Uint32()%(side/4),
	}
}

func TestBox3Geometry(t *testing.T) {
	a := Box3{0, 0, 0, 9, 9, 9}
	b := Box3{5, 5, 5, 15, 15, 15}
	c := Box3{10, 10, 10, 12, 12, 12}
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("overlapping boxes reported disjoint")
	}
	if a.Intersects(c) {
		t.Error("disjoint boxes reported overlapping")
	}
	if !b.ContainsBox(c) || c.ContainsBox(b) {
		t.Error("containment wrong")
	}
	if a.Volume() != 1000 {
		t.Errorf("volume = %v", a.Volume())
	}
	u := a.union(c)
	if !u.ContainsBox(a) || !u.ContainsBox(c) {
		t.Error("union does not cover operands")
	}
	if (Box3{5, 0, 0, 4, 9, 9}).Valid() {
		t.Error("inverted box valid")
	}
	if got := a.enlargement(a); got != 0 {
		t.Errorf("self-enlargement = %v", got)
	}
}

func TestInsertAndSearchExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := New()
	var all []Entry
	for i := 0; i < 500; i++ {
		e := Entry{Box: randBox(rng, 96), ID: int64(i)}
		if err := tr.Insert(e); err != nil {
			t.Fatal(err)
		}
		all = append(all, e)
	}
	if tr.Len() != 500 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.root.leaf {
		t.Error("root is still a leaf, expected splits")
	}
	// Compare search results against brute force for many queries.
	for q := 0; q < 100; q++ {
		query := randBox(rng, 96)
		got, st := tr.Search(query)
		var want []int64
		for _, e := range all {
			if e.Box.Intersects(query) {
				want = append(want, e.ID)
			}
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d ids, want %d", q, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d: ids differ", q)
			}
		}
		if st.NodesVisited == 0 {
			t.Fatal("no nodes visited")
		}
	}
}

func TestSearchPrunes(t *testing.T) {
	// Clustered data: queries in one corner must not visit everything.
	rng := rand.New(rand.NewSource(2))
	tr := New()
	n := 2000
	for i := 0; i < n; i++ {
		base := uint32((i % 10) * 100)
		b := Box3{
			MinX: base + rng.Uint32()%40, MinY: base + rng.Uint32()%40, MinZ: base + rng.Uint32()%40,
		}
		b.MaxX, b.MaxY, b.MaxZ = b.MinX+5, b.MinY+5, b.MinZ+5
		if err := tr.Insert(Entry{Box: b, ID: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	_, st := tr.Search(Box3{MinX: 0, MinY: 0, MinZ: 0, MaxX: 50, MaxY: 50, MaxZ: 50})
	if st.BoxTests > n/2 {
		t.Errorf("index did not prune: %d box tests for %d entries", st.BoxTests, n)
	}
}

func TestInsertInvalid(t *testing.T) {
	tr := New()
	if err := tr.Insert(Entry{Box: Box3{MinX: 5, MaxX: 1, MaxY: 1, MaxZ: 1}}); err == nil {
		t.Error("inverted box accepted")
	}
}

func TestEmptyTree(t *testing.T) {
	tr := New()
	ids, _ := tr.Search(Box3{MaxX: 10, MaxY: 10, MaxZ: 10})
	if len(ids) != 0 || tr.Len() != 0 || !tr.root.leaf {
		t.Error("empty tree misbehaves")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestInvariantsQuick property-tests structure invariants and search
// correctness under random workloads.
func TestInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		var all []Entry
		n := rng.Intn(300) + 1
		for i := 0; i < n; i++ {
			e := Entry{Box: randBox(rng, 64), ID: int64(i)}
			if err := tr.Insert(e); err != nil {
				return false
			}
			all = append(all, e)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Log(err)
			return false
		}
		q := randBox(rng, 64)
		got, _ := tr.Search(q)
		want := 0
		for _, e := range all {
			if e.Box.Intersects(q) {
				want++
			}
		}
		return len(got) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	tr := New()
	for i := 0; i < 10000; i++ {
		tr.Insert(Entry{Box: randBox(rng, 128), ID: int64(i)})
	}
	q := Box3{MinX: 30, MinY: 30, MinZ: 30, MaxX: 50, MaxY: 50, MaxZ: 50}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Search(q)
	}
}
