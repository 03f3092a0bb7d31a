package qbism

import (
	"testing"

	"qbism/internal/experiments"
	"qbism/internal/feature"
	"qbism/internal/region"
	"qbism/internal/sfc"
)

func TestBuildActivityIndex(t *testing.T) {
	s := testSystem(t)
	idx, err := experiments.BuildActivityIndex(s.Server, 96)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() == 0 {
		t.Fatal("no band regions indexed")
	}
	// A query box covering the whole grid must return every indexed entry.
	side := uint32(s.Side())
	all, _ := idx.StudiesNear(region.Box{Min: sfc.Pt(0, 0, 0), Max: sfc.Pt(side-1, side-1, side-1)})
	if len(all) != idx.Len() {
		t.Errorf("whole-grid query returned %d of %d entries", len(all), idx.Len())
	}
	// Results agree with a brute-force scan over the band regions.
	q := region.Box{Min: sfc.Pt(side/4, side/4, side/4), Max: sfc.Pt(side/2, side/2, side/2)}
	got, st := idx.StudiesNear(q)
	want := 0
	for _, bands := range s.BandRegions {
		for _, b := range bands {
			if b.Lo < 96 || b.Region.Empty() {
				continue
			}
			min, max, _ := b.Region.Bounds()
			if min.X <= q.Max.X && q.Min.X <= max.X &&
				min.Y <= q.Max.Y && q.Min.Y <= max.Y &&
				min.Z <= q.Max.Z && q.Min.Z <= max.Z {
				want++
			}
		}
	}
	if len(got) != want {
		t.Errorf("StudiesNear returned %d entries, brute force says %d", len(got), want)
	}
	if st.NodesVisited == 0 {
		t.Error("no index work recorded")
	}
	// Entries carry real metadata.
	for _, e := range got {
		if e.StudyID == 0 || e.Voxels == 0 || e.BandHi <= e.BandLo {
			t.Errorf("bad entry %+v", e)
		}
	}
}

func TestStudyFeatureAndSimilarity(t *testing.T) {
	s := testSystem(t)
	vec, err := experiments.StudyFeature(s.Server, 1, "ntal")
	if err != nil {
		t.Fatal(err)
	}
	// Histogram fractions sum to 1.
	var sum float64
	for i := 0; i < feature.HistBins; i++ {
		sum += vec[i]
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("histogram sums to %v", sum)
	}
	if _, err := experiments.StudyFeature(s.Server, 1, "no-such"); err == nil {
		t.Error("unknown structure accepted")
	}
	if _, err := experiments.StudyFeature(s.Server, 99, "ntal"); err == nil {
		t.Error("unknown study accepted")
	}

	matches, err := experiments.SimilarStudies(s.Server, 1, "ntal", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 2 {
		t.Fatalf("matches = %v", matches)
	}
	for _, m := range matches {
		if m.ID == 1 {
			t.Error("probe study returned as its own match")
		}
	}
	// Sorted ascending by distance.
	if matches[0].Distance > matches[1].Distance {
		t.Error("matches not sorted")
	}
	// PET studies should be more similar to each other than to the MRI
	// (study 4 in the test system): the nearest neighbour of PET study 1
	// must be another PET.
	if matches[0].ID == 4 {
		t.Errorf("nearest neighbour of a PET study is the MRI: %v", matches)
	}
	if _, err := experiments.SimilarStudies(s.Server, 99, "ntal", 1); err == nil {
		t.Error("unknown probe study accepted")
	}
}

func TestStudyTransactionsAndMining(t *testing.T) {
	s := testSystem(t)
	txns, err := experiments.StudyTransactions(s.Server, 128, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if len(txns) != len(s.Studies) {
		t.Fatalf("transactions = %d, want %d", len(txns), len(s.Studies))
	}
	// Every transaction carries modality and demographics.
	for _, tx := range txns {
		hasModality, hasSex, hasAge := false, false, false
		for _, it := range tx.Items {
			switch {
			case len(it) > 9 && it[:9] == "modality:":
				hasModality = true
			case len(it) > 4 && it[:4] == "sex:":
				hasSex = true
			case len(it) > 4 && it[:4] == "age:":
				hasAge = true
			}
		}
		if !hasModality || !hasSex || !hasAge {
			t.Errorf("transaction %d missing demographics: %v", tx.ID, tx.Items)
		}
	}
	// Mining runs end to end; with 4 studies and minSupport 2 there are
	// frequent sets (at least the modality item for the 3 PETs).
	rules, err := experiments.MineAssociations(s.Server, 128, 0.01, 2, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		if r.Confidence < 0.6 {
			t.Errorf("rule below confidence threshold: %v", r)
		}
	}
	if _, err := experiments.MineAssociations(s.Server, 128, 0.01, 0, 0.5); err == nil {
		t.Error("bad minSupport accepted")
	}
}
