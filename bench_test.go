package qbism

// The benchmark harness: one benchmark per table/figure of the paper's
// evaluation section, plus ablations for the physical-design choices
// DESIGN.md calls out. Benchmarks run against a shared 64^3 system (a
// quarter-scale replica of the paper's 128^3 dataset) so `go test
// -bench=.` completes quickly; `cmd/benchtables` regenerates the tables
// at full paper scale.
//
// Custom metrics reported alongside ns/op:
//
//	pages/op   LFM disk I/Os (the paper's I/O column)
//	msgs/op    network messages (Table 3's network column)
//	sim-s/op   simulated 1993 wall-clock seconds (cost model)

import (
	"fmt"
	"sync"
	"testing"

	"qbism/internal/experiments"
	"qbism/internal/lfm"
	core "qbism/internal/qbism"
	"qbism/internal/rencode/zoo"
	"qbism/internal/sfc"
	"qbism/internal/volume"
)

var (
	benchOnce sync.Once
	benchSys  *core.System
	benchErr  error
)

// benchSystem lazily builds the shared benchmark database: 64^3 atlas,
// 5 PET + 1 MRI studies, with Table 4's z-naive and octant rows stored.
func benchSystem(b *testing.B) *core.System {
	b.Helper()
	benchOnce.Do(func() {
		benchSys, benchErr = core.New(core.Config{
			Bits:         6,
			NumPET:       5,
			NumMRI:       1,
			Seed:         1993,
			SmallStudies: true,
		})
		if benchErr == nil {
			benchErr = experiments.StoreTable4Rows(benchSys.Server)
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSys
}

// BenchmarkT3SingleStudy regenerates Table 3: the six single-study
// queries Q1-Q6, reporting I/O, network and simulated time per query.
func BenchmarkT3SingleStudy(b *testing.B) {
	s := benchSystem(b)
	specs := s.Table3Queries()
	for i, spec := range specs {
		spec := spec
		b.Run(fmt.Sprintf("Q%d", i+1), func(b *testing.B) {
			var pages, msgs uint64
			var simSec float64
			for n := 0; n < b.N; n++ {
				res, err := s.RunQuery(spec)
				if err != nil {
					b.Fatal(err)
				}
				pages += res.Timing.LFMPages
				msgs += res.Timing.NetMessages
				simSec += PriceQuery(res).Total.Seconds()
			}
			b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
			b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
			b.ReportMetric(simSec/float64(b.N), "sim-s/op")
		})
	}
}

// BenchmarkT4MultiStudy regenerates Table 4: the 5-study consistent-band
// intersection under each REGION encoding, on the rows the experiments
// store for it.
func BenchmarkT4MultiStudy(b *testing.B) {
	s := benchSystem(b)
	for _, enc := range []string{experiments.EncHRunNaive, experiments.EncZNaive, experiments.EncOctant} {
		enc := enc
		b.Run(enc, func(b *testing.B) {
			var pages uint64
			var simSec float64
			for n := 0; n < b.N; n++ {
				rows, err := experiments.Table4(s.Server, 128, 159, enc)
				if err != nil {
					b.Fatal(err)
				}
				pages += rows[0].LFMPages
				simSec += rows[0].RealSim.Seconds()
			}
			b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
			b.ReportMetric(simSec/float64(b.N), "sim-s/op")
		})
	}
}

// BenchmarkE1RunRatios regenerates the Section 4.2 piece-count ratio
// experiment ((#h-runs):(#z-runs):(#oblong):(#octants)).
func BenchmarkE1RunRatios(b *testing.B) {
	s := benchSystem(b)
	for n := 0; n < b.N; n++ {
		rep, err := experiments.RunRatios(s.Server)
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.ReportMetric(rep.ZPerH, "z-per-h")
			b.ReportMetric(rep.OctPerH, "oct-per-h")
		}
	}
}

// BenchmarkE2DeltaLaw regenerates the EQ 1 power-law fit.
func BenchmarkE2DeltaLaw(b *testing.B) {
	s := benchSystem(b)
	for n := 0; n < b.N; n++ {
		rows, err := experiments.DeltaLaw(s.Server)
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			var mean float64
			for _, r := range rows {
				mean += r.Fit.Alpha
			}
			b.ReportMetric(mean/float64(len(rows)), "mean-alpha")
		}
	}
}

// BenchmarkE3EncodingSizes regenerates Figure 4: encoded REGION sizes
// against the entropy bound.
func BenchmarkE3EncodingSizes(b *testing.B) {
	s := benchSystem(b)
	for n := 0; n < b.N; n++ {
		rep, err := experiments.Sizes(s.Server)
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.ReportMetric(rep.EliasPerEntropy, "elias-x-entropy")
			b.ReportMetric(rep.NaivePerEntropy, "naive-x-entropy")
			b.ReportMetric(rep.OctPerEntropy, "octant-x-entropy")
		}
	}
}

// BenchmarkCurveOrdering is the VOLUME-clustering ablation (Section
// 4.1): extraction I/O for the same anatomical region when the volume is
// stored in Hilbert, Z, or scanline order. Hilbert should touch the
// fewest pages.
func BenchmarkCurveOrdering(b *testing.B) {
	s := benchSystem(b)
	st, err := s.Atlas.ByName("ntal")
	if err != nil {
		b.Fatal(err)
	}
	// Build one volume per ordering in a private LFM.
	scan := make([]byte, s.Curve.Length())
	for i := range scan {
		scan[i] = byte(i)
	}
	for _, kind := range []sfc.Kind{sfc.Hilbert, sfc.ZOrder, sfc.Scanline} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			c := sfc.MustNew(kind, 3, s.Cfg.Bits)
			vol, err := volume.FromScanline(c, scan)
			if err != nil {
				b.Fatal(err)
			}
			reg, err := st.Region.Recode(c)
			if err != nil {
				b.Fatal(err)
			}
			mgr, err := lfm.New(8<<20, lfm.DefaultPageSize)
			if err != nil {
				b.Fatal(err)
			}
			h, err := mgr.Allocate(vol.Bytes())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var pages uint64
			for n := 0; n < b.N; n++ {
				before := mgr.Stats().PageReads
				d, err := core.ExtractStoredOpts(mgr, h, reg, core.ExtractOpts{})
				if err != nil {
					b.Fatal(err)
				}
				if d.NumVoxels() != reg.NumVoxels() {
					b.Fatal("wrong extraction")
				}
				pages += mgr.Stats().PageReads - before
			}
			b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
		})
	}
}

// BenchmarkCodecs is the run-codec ablation: encode+decode time for a
// realistic anatomical REGION under each method.
func BenchmarkCodecs(b *testing.B) {
	s := benchSystem(b)
	st, err := s.Atlas.ByName("ntal1")
	if err != nil {
		b.Fatal(err)
	}
	reg := st.Region
	for _, m := range zoo.Methods {
		m := m
		b.Run(m.String(), func(b *testing.B) {
			data, err := zoo.Encode(m, reg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(data)), "bytes")
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				enc, err := zoo.Encode(m, reg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := zoo.Decode(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBandIndexVsScan is the intensity-band "index" ablation: an
// attribute query answered via the stored band REGION versus shipping
// the full study and filtering client-side (what a system without the
// Intensity Band entity would do).
func BenchmarkBandIndexVsScan(b *testing.B) {
	s := benchSystem(b)
	study := s.PETStudyIDs()[0]
	b.Run("band-index", func(b *testing.B) {
		var pages uint64
		for n := 0; n < b.N; n++ {
			res, err := s.RunQuery(core.QuerySpec{
				StudyID: study, Atlas: "Talairach", HasBand: true, BandLo: 224, BandHi: 255,
			})
			if err != nil {
				b.Fatal(err)
			}
			pages += res.Timing.LFMPages
		}
		b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
	})
	b.Run("full-scan", func(b *testing.B) {
		var pages uint64
		for n := 0; n < b.N; n++ {
			res, err := s.RunQuery(core.QuerySpec{
				StudyID: study, Atlas: "Talairach", FullStudy: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			data, err := res.Data()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := data.Filter(224, 255); err != nil {
				b.Fatal(err)
			}
			pages += res.Timing.LFMPages
		}
		b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
	})
}

// BenchmarkRunPrunedExtraction measures the run-pruned read plan on a
// real anatomical REGION across gap thresholds: pages/op rises and
// reads/op (the seek proxy) falls as the gap widens — the tunable
// trade the cost model's CoalesceGapPages prices.
func BenchmarkRunPrunedExtraction(b *testing.B) {
	s := benchSystem(b)
	st, err := s.Atlas.ByName("ntal")
	if err != nil {
		b.Fatal(err)
	}
	res, err := s.DB.Exec("select wv.data from warpedVolume wv where wv.studyId = 1")
	if err != nil || len(res.Rows) != 1 {
		b.Fatalf("volume lookup: %v", err)
	}
	h := res.Rows[0][0].L
	for _, gap := range []uint64{0, 4, 11, 64} {
		gap := gap
		b.Run(fmt.Sprintf("gap%d", gap), func(b *testing.B) {
			var pages, reads uint64
			for n := 0; n < b.N; n++ {
				before := s.LFM.Stats()
				d, err := core.ExtractStoredOpts(s.LFM, h, st.Region, core.ExtractOpts{GapPages: gap})
				if err != nil {
					b.Fatal(err)
				}
				if d.NumVoxels() != st.Region.NumVoxels() {
					b.Fatal("wrong extraction")
				}
				delta := s.LFM.Stats().Sub(before)
				pages += delta.PageReads
				reads += delta.Reads
			}
			b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
			b.ReportMetric(float64(reads)/float64(b.N), "reads/op")
		})
	}
}

// BenchmarkParallelMultiStudy measures the population query's
// consistent-band intersection (ConsistentBandRegion) under the h-naive
// label the repo benchmark names, end to end on a single server: the
// question crosses the simulated link, the server reads every PET study's
// band field — a k³-tree, as under the k3-tree label, since each band is
// stored once — whole, one at a time, walks it once into the fold and
// sends back only the answer REGION, which the client decodes.
// allocs/op is the call's: 3 on this band (the client's answer object and
// run list, and the server's read buffer, which the reply is encoded in
// and the simulated link's client keeps), 2 on an empty one; the fold's
// slabs and answer runs come from the server's free lists;
// TestConsistentBandRegionAllocBudget holds the mean over the eight
// paper-scale bands to 2.625.
func BenchmarkParallelMultiStudy(b *testing.B) {
	b.ReportAllocs()
	s := benchSystem(b)
	pets := s.PETStudyIDs()
	pages0 := s.LFM.Stats().PageReads
	for n := 0; n < b.N; n++ {
		if _, err := s.ConsistentBandRegion(pets, 128, 159, core.EncHilbertNaive, 1); err != nil {
			b.Fatal(err)
		}
	}
	pages := s.LFM.Stats().PageReads - pages0
	b.ReportMetric(float64(pages)/float64(b.N), "pages/op")
}

// BenchmarkParallelQueryBatch runs the Table 3 query mix as a batch,
// serial versus 4 workers, through the full RPC + retry stack.
func BenchmarkParallelQueryBatch(b *testing.B) {
	s := benchSystem(b)
	var specs []core.QuerySpec
	for _, id := range s.PETStudyIDs() {
		specs = append(specs,
			core.QuerySpec{StudyID: id, Atlas: "Talairach", Structure: "ntal"},
			core.QuerySpec{StudyID: id, Atlas: "Talairach", HasBand: true, BandLo: 224, BandHi: 255},
			core.QuerySpec{StudyID: id, Atlas: "Talairach", Structure: "ntal1", HasBand: true, BandLo: 224, BandHi: 255},
		)
	}
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				for _, item := range s.RunQueries(specs, workers) {
					if item.Err != nil {
						b.Fatal(item.Err)
					}
				}
			}
		})
	}
}

// BenchmarkMingapApproximation measures the approximate-REGION sweep.
func BenchmarkMingapApproximation(b *testing.B) {
	s := benchSystem(b)
	for n := 0; n < b.N; n++ {
		if _, err := experiments.MingapSweep(s.Server, []uint64{4, 16, 64}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoad measures the whole load pipeline (synthesize, register,
// warp, reorder, band, encode, store) on the default corpus at half the
// paper's grid — an eighth of the voxels, well under a second. ns/op moves
// with every kernel in the pipeline and with how well it fills the
// processors; allocs/op with what a load leaves for the collector;
// stored-pages is the device pages the store holds. `make bench-smoke`
// runs one iteration.
func BenchmarkLoad(b *testing.B) {
	b.ReportAllocs()
	var pages uint64
	for n := 0; n < b.N; n++ {
		s, err := core.New(core.Config{Bits: 6})
		if err != nil {
			b.Fatal(err)
		}
		pages = s.LFM.Capacity()/s.LFM.PageSize() - s.LFM.FreePages()
		s.Close()
	}
	b.ReportMetric(float64(pages), "stored-pages")
}

// BenchmarkPaperSQL measures the paper's §3.4 two-query sequence
// through the SQL layer.
func BenchmarkPaperSQL(b *testing.B) {
	s := benchSystem(b)
	for n := 0; n < b.N; n++ {
		if _, err := s.DB.Exec(`
select a.n, a.x0, a.y0, a.z0, a.dx, a.dy, a.dz,
       a.atlasId, p.name, p.patientId, rv.date
from   atlas a, rawVolume rv, warpedVolume wv, patient p
where  a.atlasId = wv.atlasId and wv.studyId = rv.studyId and
       rv.patientId = p.patientId and rv.studyId = 1 and a.atlasName = 'Talairach'`); err != nil {
			b.Fatal(err)
		}
		if _, err := s.DB.Exec(`
select as.region, extractVoxels(wv.data, as.region)
from   warpedVolume wv, atlasStructure as, neuralStructure ns
where  wv.studyId = 1 and wv.atlasId = as.atlasId and
       as.structureId = ns.structureId and ns.structureName = 'putamen'`); err != nil {
			b.Fatal(err)
		}
	}
}
