package faultsim

import (
	"math"
	"reflect"
	"testing"
)

func TestNilInjectorSafe(t *testing.T) {
	var in *Injector
	if in.LinkFault() != None || in.ReadFault() != None || in.WriteFault() != None {
		t.Error("nil injector injected a fault")
	}
	if in.Ops() != 0 || in.Count(Drop) != 0 || len(in.Counts()) != 0 {
		t.Error("nil injector reports activity")
	}
	if p := in.Policy(); !reflect.DeepEqual(p, Policy{}) {
		t.Errorf("nil injector policy %+v, want the zero policy", p)
	}
}

func TestZeroPolicyInjectsNothing(t *testing.T) {
	in := New(Policy{Seed: 99})
	for i := 0; i < 1000; i++ {
		if k := in.LinkFault(); k != None {
			t.Fatalf("op %d: %v", i, k)
		}
	}
	if in.Ops() != 1000 {
		t.Errorf("ops = %d", in.Ops())
	}
}

func TestDeterminism(t *testing.T) {
	p := Policy{Seed: 7, DropProb: 0.1, TimeoutProb: 0.1, CorruptProb: 0.05,
		TamperProb: 0.05, LatencyProb: 0.1, ReadErrProb: 0.1, PageCorruptProb: 0.1}
	a, b := New(p), New(p)
	for i := 0; i < 2000; i++ {
		// Interleave families the way a real query does.
		if i%3 == 0 {
			if ka, kb := a.ReadFault(), b.ReadFault(); ka != kb {
				t.Fatalf("op %d: %v vs %v", i, ka, kb)
			}
		} else {
			if ka, kb := a.LinkFault(), b.LinkFault(); ka != kb {
				t.Fatalf("op %d: %v vs %v", i, ka, kb)
			}
		}
	}
	for k := Kind(0); k < numKinds; k++ {
		if a.Count(k) != b.Count(k) {
			t.Errorf("count[%v] = %d vs %d", k, a.Count(k), b.Count(k))
		}
	}
}

func TestSeedChangesSequence(t *testing.T) {
	pa := Policy{Seed: 1, DropProb: 0.3}
	pb := Policy{Seed: 2, DropProb: 0.3}
	a, b := New(pa), New(pb)
	same := 0
	const n = 1000
	for i := 0; i < n; i++ {
		if a.LinkFault() == b.LinkFault() {
			same++
		}
	}
	if same == n {
		t.Error("different seeds produced identical sequences")
	}
}

func TestScheduleHonored(t *testing.T) {
	in := New(Policy{Schedule: []Scheduled{
		{Op: 2, Kind: Drop},
		{Op: 3, Kind: Tamper},
		{Op: 5, Kind: ReadErr}, // wrong family for LinkFault: ignored
	}})
	want := []Kind{None, Drop, Tamper, None, None, None}
	for i, w := range want {
		if k := in.LinkFault(); k != w {
			t.Errorf("op %d: %v, want %v", i+1, k, w)
		}
	}
	if in.Count(Drop) != 1 || in.Count(Tamper) != 1 || in.Count(ReadErr) != 0 {
		t.Errorf("counts = %v", in.Counts())
	}
}

func TestScheduleFamilies(t *testing.T) {
	in := New(Policy{Schedule: []Scheduled{
		{Op: 1, Kind: ReadErr},
		{Op: 2, Kind: PageCorrupt},
		{Op: 3, Kind: WriteErr},
		{Op: 4, Kind: TornWrite},
	}})
	if k := in.ReadFault(); k != ReadErr {
		t.Errorf("op 1: %v", k)
	}
	if k := in.ReadFault(); k != PageCorrupt {
		t.Errorf("op 2: %v", k)
	}
	if k := in.WriteFault(); k != WriteErr {
		t.Errorf("op 3: %v", k)
	}
	if k := in.WriteFault(); k != TornWrite {
		t.Errorf("op 4: %v", k)
	}
}

func TestProbabilityRates(t *testing.T) {
	// With 20000 draws the observed rate of each kind should be within
	// a few sigma of its probability.
	p := Policy{Seed: 123, DropProb: 0.1, TimeoutProb: 0.05, LatencyProb: 0.05,
		CorruptProb: 0.03, TamperProb: 0.02}
	in := New(p)
	const n = 20000
	for i := 0; i < n; i++ {
		in.LinkFault()
	}
	check := func(k Kind, prob float64) {
		got := float64(in.Count(k)) / n
		sigma := math.Sqrt(prob * (1 - prob) / n)
		if math.Abs(got-prob) > 5*sigma {
			t.Errorf("%v rate = %.4f, want %.4f ± %.4f", k, got, prob, 5*sigma)
		}
	}
	check(Drop, p.DropProb)
	check(Timeout, p.TimeoutProb)
	check(Latency, p.LatencyProb)
	check(Corrupt, p.CorruptProb)
	check(Tamper, p.TamperProb)
}

func TestOneDrawPerDecision(t *testing.T) {
	// Stream alignment must not depend on which probabilities are set:
	// an all-zero policy and a tiny-probability policy consume the rng
	// identically, so Intn calls after N decisions agree.
	a := New(Policy{Seed: 5})
	b := New(Policy{Seed: 5, DropProb: 1e-12})
	for i := 0; i < 100; i++ {
		a.LinkFault()
		b.LinkFault()
	}
	if x, y := a.Intn(1000), b.Intn(1000); x != y {
		t.Errorf("stream diverged: %d vs %d", x, y)
	}
}

func TestKindString(t *testing.T) {
	if Drop.String() != "drop" || TornWrite.String() != "torn-write" || None.String() != "none" {
		t.Error("kind names wrong")
	}
	if Kind(200).String() == "" {
		t.Error("out-of-range kind has empty name")
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(42)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v", f)
		}
	}
}
