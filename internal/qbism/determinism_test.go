package qbism

import (
	"testing"

	"qbism/internal/sdb"
)

// warpedVolume reads a study's stored atlas-space VOLUME back.
func warpedVolume(t *testing.T, s *System, studyID int) []byte {
	t.Helper()
	res, err := s.DB.Exec(`select wv.data from warpedVolume wv where wv.studyId = ?`, sdb.Int(int64(studyID)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("study %d has %d warped volumes", studyID, len(res.Rows))
	}
	data, err := s.LFM.Read(res.Rows[0][0].L)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSystemDeterminism: two systems built from the same seed must be
// bit-identical in every respect an experiment can observe — the whole
// reproduction depends on this.
func TestSystemDeterminism(t *testing.T) {
	cfg := Config{Bits: 4, NumPET: 2, NumMRI: 1, Seed: 99, SmallStudies: true}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Band regions identical.
	for study, bandsA := range a.BandRegions {
		bandsB := b.BandRegions[study]
		if len(bandsA) != len(bandsB) {
			t.Fatalf("study %d band counts differ", study)
		}
		for i := range bandsA {
			if !bandsA[i].Region.Equal(bandsB[i].Region) {
				t.Fatalf("study %d band %d regions differ", study, i)
			}
		}
	}
	// Warped volumes identical.
	for _, st := range a.Studies {
		ba, bb := warpedVolume(t, a, st.StudyID), warpedVolume(t, b, st.StudyID)
		for i := range ba {
			if ba[i] != bb[i] {
				t.Fatalf("study %d differs at voxel %d", st.StudyID, i)
			}
		}
	}
	// Query results and I/O counts identical.
	spec := QuerySpec{StudyID: 1, Atlas: "Talairach", Structure: "ntal"}
	ra, err := a.RunQuery(spec)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.RunQuery(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Timing.LFMPages != rb.Timing.LFMPages || ra.Timing.Voxels != rb.Timing.Voxels ||
		ra.Timing.NetMessages != rb.Timing.NetMessages {
		t.Errorf("timings differ: %+v vs %+v", ra.Timing, rb.Timing)
	}
	// Different seeds produce different data.
	c, err := New(Config{Bits: 4, NumPET: 2, NumMRI: 1, Seed: 100, SmallStudies: true})
	if err != nil {
		t.Fatal(err)
	}
	va, vc := warpedVolume(t, a, 1), warpedVolume(t, c, 1)
	same := 0
	for i := range va {
		if va[i] == vc[i] {
			same++
		}
	}
	if same == len(va) {
		t.Error("different seeds produced identical volumes")
	}
}
