package qbism

import (
	"fmt"
	"testing"

	"qbism/internal/lfm"
	"qbism/internal/medserver"
	"qbism/internal/region"
	"qbism/internal/sdb"
)

// The page floor of the repo benchmark's request shapes (DESIGN.md §32):
// what a query must read under the paper's unbuffered protocol is the
// VOLUME pages holding its answer's voxels, plus every page of each
// stored REGION field its plan reads — REGION fields are read whole. The
// oracle computes that from the in-memory atlas and bands, independently
// of the server, and every query's own bill (QueryMeta.LFMPages) must
// equal it exactly. The excess lfm_pages_per_query could still lose is
// then named by the oracle's terms, not guessed at.

// pageFloorNames are the repo benchmark's small structures, the ones
// daemon_small and population_batch ask for.
var pageFloorNames = []string{"ntal", "putamen", "hippocampus", "caudate", "thalamus", "amygdala", "cerebellum", "brainstem"}

// pageFloor is a bill split by what the oracle says it reads.
type pageFloor struct {
	volume, structure, band uint64
}

func (f pageFloor) total() uint64 { return f.volume + f.structure + f.band }

// volumePages counts the distinct VOLUME pages r's voxels lie on: a
// VOLUME is one byte per voxel in curve order, from a page boundary.
func volumePages(r *region.Region, pageSize uint64) uint64 {
	var n, last uint64
	seen := false
	for _, run := range r.RunsView() {
		first, end := run.Lo/pageSize, run.Hi/pageSize
		if seen && first <= last {
			first = last + 1
		}
		if first <= end {
			n += end - first + 1
		}
		last, seen = max(last, end), true
	}
	return n
}

// fieldPages is the pages a whole-field read of the LONG value v costs.
func fieldPages(t *testing.T, m *lfm.Manager, v sdb.Value) uint64 {
	t.Helper()
	size, err := m.Size(v.L)
	if err != nil {
		t.Fatal(err)
	}
	return (size + m.PageSize() - 1) / m.PageSize()
}

// longField runs a one-row, one-column query for a stored REGION.
func longField(t *testing.T, srv *medserver.Server, query string, args ...sdb.Value) sdb.Value {
	t.Helper()
	res, err := srv.DB.Exec(query, args...)
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].T != sdb.TLong {
		t.Fatalf("%s %v: %d rows, %v", query, args, len(res.Rows), err)
	}
	return res.Rows[0][0]
}

// pagesAtFieldFloor serves every daemon_small shape of srv's corpus —
// each small structure, alone and ∩ each band in the default (k³)
// encoding — and checks each bill against the oracle, then does the
// same for population_batch's ConsistentBandRegion over the PET
// studies, under the h-naive label it names and the k3-tree label, which
// read the same fields. It returns the mean split of each.
func pagesAtFieldFloor(t *testing.T, srv *medserver.Server) string {
	ps := srv.LFM.PageSize()
	structField := func(name string) uint64 {
		return fieldPages(t, srv.LFM, longField(t, srv,
			`select as.region from atlasStructure as, neuralStructure ns where as.structureId = ns.structureId and ns.structureName = ?`,
			sdb.Str(name)))
	}
	bandField := func(study int, lo, hi uint8, encoding string) uint64 {
		return fieldPages(t, srv.LFM, longField(t, srv,
			`select ib.region from intensityBand ib where ib.studyId = ? and ib.lo = ? and ib.hi = ? and ib.encoding = ?`,
			sdb.Int(int64(study)), sdb.Int(int64(lo)), sdb.Int(int64(hi)), sdb.Str(encoding)))
	}
	serve := func(spec QuerySpec, want *region.Region, floor pageFloor) {
		t.Helper()
		req, err := EncodeQueryRequest(spec)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.ServeRPC(nil, QueryMethod, req)
		if err != nil {
			t.Fatal(err)
		}
		meta, blob, err := DecodeQueryResponse(resp)
		if err != nil {
			t.Fatal(err)
		}
		d, err := UnmarshalDataRegion(blob)
		if err != nil {
			t.Fatal(err)
		}
		if !d.Region.Equal(want) {
			t.Fatalf("%s: the answer is not the oracle's REGION", spec.Label())
		}
		if meta.LFMPages != floor.total() {
			t.Errorf("%s: billed %d pages, floor %d (%d VOLUME + %d structure field + %d band field)",
				spec.Label(), meta.LFMPages, floor.total(), floor.volume, floor.structure, floor.band)
		}
	}

	var small, smallBand pageFloor
	var nSmall, nBand float64
	for _, st := range srv.Studies {
		for _, name := range pageFloorNames {
			s, err := srv.Atlas.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			spec := QuerySpec{StudyID: st.StudyID, Atlas: "Talairach", Structure: name}
			f := pageFloor{volume: volumePages(s.Region, ps), structure: structField(name)}
			serve(spec, s.Region, f)
			small.volume, small.structure, nSmall = small.volume+f.volume, small.structure+f.structure, nSmall+1
			for _, b := range srv.BandRegions[st.StudyID] {
				want, err := region.Intersect(s.Region, b.Region)
				if err != nil {
					t.Fatal(err)
				}
				spec := spec
				spec.HasBand, spec.BandLo, spec.BandHi = true, int(b.Lo), int(b.Hi)
				fb := pageFloor{volume: volumePages(want, ps), structure: f.structure,
					band: bandField(st.StudyID, b.Lo, b.Hi, medserver.EncK3Tree)}
				serve(spec, want, fb)
				smallBand.volume += fb.volume
				smallBand.structure += fb.structure
				smallBand.band += fb.band
				nBand++
			}
		}
	}

	pets := srv.PETStudyIDs()
	sweep := func(encoding string) float64 {
		var pages uint64
		bands := srv.BandRegions[pets[0]]
		for _, b := range bands {
			var floor uint64
			for _, study := range pets {
				floor += bandField(study, b.Lo, b.Hi, encoding)
			}
			before := srv.LFM.Stats().PageReads
			if _, err := srv.ConsistentBandRegion(pets, int(b.Lo), int(b.Hi), encoding, 1); err != nil {
				t.Fatal(err)
			}
			if got := srv.LFM.Stats().PageReads - before; got != floor {
				t.Errorf("ConsistentBandRegion [%d,%d] on %s rows: read %d pages, floor %d", b.Lo, b.Hi, encoding, got, floor)
			}
			pages += floor
		}
		return float64(pages) / float64(len(bands))
	}
	return fmt.Sprintf("small: %.3f VOLUME + %.3f field pages; small ∩ band: %.3f + %.3f + %.3f (the k3-tree band field); "+
		"ConsistentBandRegion: %.3f pages per band on h-naive rows, %.3f on k³",
		float64(small.volume)/nSmall, float64(small.structure)/nSmall,
		float64(smallBand.volume)/nBand, float64(smallBand.structure)/nBand, float64(smallBand.band)/nBand,
		sweep(EncHilbertNaive), sweep(medserver.EncK3Tree))
}

// TestPagesAtFieldFloor holds every daemon_small and population_batch
// shape of a Bits 6 corpus to the page floor (DESIGN.md §32 has the
// paper-scale split).
func TestPagesAtFieldFloor(t *testing.T) {
	srv := bareServer(t, Config{Bits: 6, NumPET: 2, NumMRI: 1, Seed: 7, SmallStudies: true})
	t.Log(pagesAtFieldFloor(t, srv))
}
