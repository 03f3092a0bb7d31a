package qbism

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"qbism/internal/medserver"
	"qbism/internal/region"
	"qbism/internal/sdb"
	"qbism/internal/volume"
)

// TestDegradedBandEveryShape is the band fallback's differential test.
// A band query the server cannot answer from its intensityBand row — the
// row fails its checksum, or the range [lo+1, hi] is not a stored band —
// must return exactly the answer an independent oracle builds from the
// in-memory band REGION, the atlas structure and the VOLUME's bytes,
// marked Degraded with a warning and counted once. Every stored band of
// every study is asked alone and ∩ each small structure. On the unstored
// range the bill is the unrestricted query's floor, page for page: the
// structure field and its VOLUME pages, or every VOLUME page.
func TestDegradedBandEveryShape(t *testing.T) {
	srv := bareServer(t, Config{Bits: 5, NumPET: 2, NumMRI: 1, Seed: 7, SmallStudies: true})
	ps := srv.LFM.PageSize()
	metrics, _ := srv.Observers()
	degraded := metrics.Counter("qbism_degraded_total")

	// structures[""] is the pure band's: no spatial restriction.
	structures := map[string]*region.Region{"": nil}
	structField := map[string]uint64{}
	for _, name := range pageFloorNames {
		s, err := srv.Atlas.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		structures[name] = s.Region
		structField[name] = fieldPages(t, srv.LFM, longField(t, srv,
			`select as.region from atlasStructure as, neuralStructure ns where as.structureId = ns.structureId and ns.structureName = ?`,
			sdb.Str(name)))
	}

	// serve runs spec through ServeRPC and returns its reply.
	serve := func(spec QuerySpec) (*QueryMeta, []byte, error) {
		t.Helper()
		req, err := EncodeQueryRequest(spec)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.ServeRPC(nil, QueryMethod, req)
		if err != nil {
			return nil, nil, err
		}
		meta, blob, err := DecodeQueryResponse(resp)
		if err != nil {
			t.Fatal(err)
		}
		return meta, blob, nil
	}
	asked := 0
	// degradedAnswer serves spec and checks it is degraded once, with a
	// warning, and byte-identical to want.
	degradedAnswer := func(spec QuerySpec, want []byte) *QueryMeta {
		t.Helper()
		asked++
		deg0 := degraded.Value()
		meta, blob, err := serve(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Label(), err)
		}
		if !meta.Degraded || meta.Warning == "" {
			t.Errorf("%s: not marked degraded: %+v", spec.Label(), meta)
		}
		if got := degraded.Value() - deg0; got != 1 {
			t.Errorf("%s: qbism_degraded_total moved by %d, want 1", spec.Label(), got)
		}
		if !bytes.Equal(blob, want) {
			t.Errorf("%s: degraded answer differs from the oracle's", spec.Label())
		}
		return meta
	}

	// A structure the atlas does not have is an error in the fallback
	// too, typed as the structure query's, not a degraded answer.
	study := srv.Studies[0].StudyID
	b := srv.BandRegions[study][0]
	for _, lo := range []int{int(b.Lo), int(b.Lo) + 1} {
		spec := QuerySpec{StudyID: study, Atlas: "Talairach", Structure: "no-such",
			HasBand: true, BandLo: lo, BandHi: int(b.Hi)}
		deg0 := degraded.Value()
		_, _, err := serve(spec)
		if want := fmt.Sprintf("no structure %q in atlas %q", "no-such", "Talairach"); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want %q", spec.Label(), err, want)
		}
		if got := degraded.Value() - deg0; got != 0 {
			t.Errorf("%s: qbism_degraded_total moved by %d", spec.Label(), got)
		}
	}

	for _, st := range srv.Studies {
		vh := longField(t, srv, `select wv.data from warpedVolume wv where wv.studyId = ?`, sdb.Int(int64(st.StudyID)))
		vol, err := srv.LFM.Read(vh.L)
		if err != nil {
			t.Fatal(err)
		}
		volumeField := fieldPages(t, srv.LFM, vh)
		// oracle is band ∩ structure (band alone for a nil structure),
		// keeping only the voxels of value at least lo, marshaled as the
		// server marshals its answers.
		oracle := func(band, structure *region.Region, lo uint8) []byte {
			t.Helper()
			r := band
			if structure != nil {
				var err error
				if r, err = region.Intersect(band, structure); err != nil {
					t.Fatal(err)
				}
			}
			var ids []uint64
			var vals []byte
			r.ForEachID(func(id uint64) bool {
				if v := vol[id]; v >= lo {
					ids, vals = append(ids, id), append(vals, v)
				}
				return true
			})
			kept, err := region.FromIDs(r.Curve(), ids)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := MarshalDataRegion(&volume.DataRegion{Region: kept, Values: vals}, srv.Cfg.Method)
			if err != nil {
				t.Fatal(err)
			}
			return blob
		}

		for _, b := range srv.BandRegions[st.StudyID] {
			for name, s := range structures {
				spec := QuerySpec{StudyID: st.StudyID, Atlas: "Talairach", Structure: name,
					HasBand: true, BandLo: int(b.Lo), BandHi: int(b.Hi)}

				// The fast path is the oracle's answer too.
				if _, blob, err := serve(spec); err != nil || !bytes.Equal(blob, oracle(b.Region, s, b.Lo)) {
					t.Fatalf("%s: healthy answer is not the oracle's (%v)", spec.Label(), err)
				}

				unstored := spec
				unstored.BandLo++
				meta := degradedAnswer(unstored, oracle(b.Region, s, b.Lo+1))
				floor := volumeField
				if s != nil {
					floor = structField[name] + volumePages(s, ps)
				}
				if meta.LFMPages != floor {
					t.Errorf("%s: billed %d pages, the unrestricted query's floor is %d", unstored.Label(), meta.LFMPages, floor)
				}
			}

			// Rot the band's k³-tree row behind its checksum; every shape
			// that names the band now falls back.
			bh := longField(t, srv,
				`select ib.region from intensityBand ib where ib.studyId = ? and ib.lo = ? and ib.hi = ? and ib.encoding = ?`,
				sdb.Int(int64(st.StudyID)), sdb.Int(int64(b.Lo)), sdb.Int(int64(b.Hi)), sdb.Str(medserver.EncK3Tree))
			if err := srv.LFM.Corrupt(bh.L, 3, 0x40); err != nil {
				t.Fatal(err)
			}
			for name, s := range structures {
				spec := QuerySpec{StudyID: st.StudyID, Atlas: "Talairach", Structure: name,
					HasBand: true, BandLo: int(b.Lo), BandHi: int(b.Hi)}
				meta := degradedAnswer(spec, oracle(b.Region, s, b.Lo))
				if !strings.Contains(meta.Warning, "unreadable") {
					t.Errorf("%s: warning %q does not name the unreadable row", spec.Label(), meta.Warning)
				}
			}
		}
	}
	t.Logf("%d degraded answers held to the oracle", asked)
}

// BenchmarkDegradedBand serves, at paper scale and with nothing in front
// of the server, a band range no intensityBand row holds (70–90): alone,
// the whole study filtered by value ("pure"), and ∩ ntal1, the structure
// filtered by value ("mixed"). `make bench-smoke` runs a few iterations.
func BenchmarkDegradedBand(b *testing.B) {
	srv := bareServer(b, Config{Bits: 7, NumPET: 1, Seed: 7, SmallStudies: true})
	for _, tc := range []struct{ name, structure string }{{"pure", ""}, {"mixed", "ntal1"}} {
		spec := QuerySpec{StudyID: srv.Studies[0].StudyID, Atlas: "Talairach", Structure: tc.structure,
			HasBand: true, BandLo: 70, BandHi: 90}
		req, err := EncodeQueryRequest(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := srv.ServeRPC(nil, QueryMethod, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
