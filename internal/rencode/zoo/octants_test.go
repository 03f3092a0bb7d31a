package zoo

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"qbism/internal/region"
	"qbism/internal/sfc"
)

// TestPaperTablesOctants reproduces the oblong-octant and octant rows of
// Tables 1 and 2: the Figure 3 REGION, z-ids {1, 4, 5, 6, 7, 12, 13},
// on the Z curve and on the Hilbert curve.
func TestPaperTablesOctants(t *testing.T) {
	for _, tc := range []struct {
		c            sfc.Curve
		oblong, octs []Block
	}{
		{z2, []Block{{1, 0}, {4, 2}, {12, 1}}, []Block{{1, 0}, {4, 2}, {12, 0}, {13, 0}}},
		{h2, []Block{{3, 0}, {4, 2}, {8, 1}}, []Block{{3, 0}, {4, 2}, {8, 0}, {9, 0}}},
	} {
		var ids []uint64
		for _, zid := range []uint64{1, 4, 5, 6, 7, 12, 13} {
			ids = append(ids, tc.c.ID(z2.Point(zid)))
		}
		r, err := region.FromIDs(tc.c, ids)
		if err != nil {
			t.Fatal(err)
		}
		if got := OblongOctants(r); !slices.Equal(got, tc.oblong) {
			t.Errorf("%v: oblong octants %v, want %v", tc.c.Kind(), got, tc.oblong)
		}
		if got := Octants(r); !slices.Equal(got, tc.octs) {
			t.Errorf("%v: octants %v, want %v", tc.c.Kind(), got, tc.octs)
		}
	}
	if (Block{1, 2}).String() != "<1,2>" {
		t.Error("Block.String broken")
	}
}

// TestOctantsCoverExactly: property test that both decompositions
// reconstruct the region exactly and are aligned.
func TestOctantsCoverExactly(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := randRegion(rng, h3, 101)
		for _, octs := range [][]Block{Octants(r), OblongOctants(r)} {
			var total uint64
			for _, o := range octs {
				if o.ID%o.Len() != 0 {
					return false // misaligned
				}
				total += o.Len()
			}
			if total != r.NumVoxels() {
				return false
			}
			back, err := FromOctantList(h3, octs)
			if err != nil || !back.Equal(r) {
				return false
			}
		}
		// Regular octants have rank divisible by dim.
		for _, o := range Octants(r) {
			if int(o.Rank)%3 != 0 {
				return false
			}
		}
		// Piece-count ordering from the paper: #runs <= #oblong <= #octants.
		nob, noc := len(OblongOctants(r)), len(Octants(r))
		return r.NumRuns() <= nob && nob <= noc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFromOctantListErrors(t *testing.T) {
	if _, err := FromOctantList(h2, []Block{{1, 1}}); err == nil {
		t.Error("misaligned octant accepted")
	}
	if _, err := FromOctantList(h2, []Block{{0, 5}}); err == nil {
		t.Error("oversized octant accepted")
	}
}

func TestPackOctant(t *testing.T) {
	o := Block{ID: (1 << 27) - 8, Rank: 3}
	v, err := PackOctant(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := UnpackOctant(v); got != o {
		t.Errorf("round trip = %v, want %v", got, o)
	}
	if _, err := PackOctant(Block{ID: 1 << 27}); err == nil {
		t.Error("27-bit overflow accepted")
	}
	if _, err := PackOctant(Block{ID: 0, Rank: 28}); err == nil {
		t.Error("rank overflow accepted")
	}
}
