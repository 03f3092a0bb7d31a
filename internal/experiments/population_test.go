package experiments

import (
	"reflect"
	"testing"

	"qbism/internal/medserver"
	"qbism/internal/region"
	"qbism/internal/sfc"
)

// TestActivityIndexDeterministic: the index is a function of the loaded
// corpus — entry ids, hit order and search work replay exactly.
func TestActivityIndexDeterministic(t *testing.T) {
	s, err := medserver.New(medserver.Config{Bits: 5, NumPET: 4, NumMRI: 2, Seed: 5, SmallStudies: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	side := uint32(s.Side())
	whole := region.Box{Min: sfc.Pt(0, 0, 0), Max: sfc.Pt(side-1, side-1, side-1)}
	first, err := BuildActivityIndex(s, 96)
	if err != nil {
		t.Fatal(err)
	}
	wantHits, wantStats := first.StudiesNear(whole)
	if len(wantHits) == 0 {
		t.Fatal("nothing indexed")
	}
	for i := 0; i < 20; i++ {
		idx, err := BuildActivityIndex(s, 96)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(idx.entries, first.entries) {
			t.Fatalf("rebuild %d assigned different entry ids", i)
		}
		hits, st := idx.StudiesNear(whole)
		if !reflect.DeepEqual(hits, wantHits) || st != wantStats {
			t.Fatalf("rebuild %d: StudiesNear order or SearchStats differ from the first build", i)
		}
	}
}
