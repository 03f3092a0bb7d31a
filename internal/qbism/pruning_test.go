package qbism

import (
	"bytes"
	"math/rand"
	"testing"

	"qbism/internal/lfm"
	"qbism/internal/region"
	"qbism/internal/rencode"
	"qbism/internal/sdb"
	"qbism/internal/sfc"
	"qbism/internal/transport"
)

// The run-pruned read path (gap-coalesced extraction, the LFM page
// cache, the pruned band slow path) must be invisible in results: every
// combination of gap threshold and cache size returns bytes identical
// to the seed plan, across the whole chaos query corpus. Only the I/O
// counters may change.

// runCorpus executes every spec in the pool and returns the marshaled
// result blobs keyed by spec.
func runCorpus(t *testing.T, sys *System, pool []QuerySpec) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, len(pool))
	for _, spec := range pool {
		res, err := sys.RunQuery(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Label(), err)
		}
		out[spec.Key()] = marshalResult(t, sys.Cfg.Method, res)
	}
	return out
}

func TestPrunedReadPathByteIdentical(t *testing.T) {
	baseline, err := New(chaosBaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	pool := chaosSpecPool(baseline)
	want := runCorpus(t, baseline, pool)

	variants := []struct {
		name  string
		gap   uint64
		cache int
	}{
		{"gap2", 2, 0},
		{"gap8", 8, 0},
		{"gap64", 64, 0},
		{"cache64", 0, 64},
		{"gap8cache64", 8, 64},
		{"gap8cache2", 8, 2}, // tiny cache: constant eviction, same bytes
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := chaosBaseConfig()
			cfg.ReadGapPages = v.gap
			cfg.CachePages = v.cache
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := runCorpus(t, sys, pool)
			for _, spec := range pool {
				if !bytes.Equal(got[spec.Key()], want[spec.Key()]) {
					t.Fatalf("%s: result differs from seed read path", spec.Label())
				}
			}
			if v.cache >= 64 {
				// A cache big enough for the working set must hit across
				// the corpus's repeated reads.
				if st := sys.LFM.Stats(); st.CacheHits == 0 {
					t.Error("cache enabled but never hit across the corpus")
				}
			}
		})
	}
}

// TestPrunedReadPathUnderFaults reruns the chaos workload with the gap
// threshold and the page cache both on: successes must stay
// byte-identical to the fault-free baseline, failures must stay typed
// and retryable, and the PR 1 success-rate guarantee must hold.
func TestPrunedReadPathUnderFaults(t *testing.T) {
	clean, err := New(chaosBaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	pool := chaosSpecPool(clean)
	want := runCorpus(t, clean, pool)

	cfg := chaosBaseConfig()
	cfg.ReadGapPages = 4
	cfg.CachePages = 32
	cfg.DeviceFaults = chaosDevicePolicy(302)
	sys, _ := newFaulty(t, cfg, chaosLinkPolicy(301), WithRetry(transport.DefaultRetryPolicy()))

	succeeded := 0
	total := 0
	for round := 0; round < 4; round++ {
		for _, spec := range pool {
			total++
			res, err := sys.RunQuery(spec)
			if err != nil {
				if !transport.RetryableError(err) {
					t.Fatalf("%s: fatal-classified error escaped: %v", spec.Label(), err)
				}
				continue
			}
			succeeded++
			if got := marshalResult(t, sys.Cfg.Method, res); !bytes.Equal(got, want[spec.Key()]) {
				t.Fatalf("%s: silent corruption through cache+gap path (degraded=%v)",
					spec.Label(), res.Meta.Degraded)
			}
		}
	}
	if rate := float64(succeeded) / float64(total); rate < 0.95 {
		t.Errorf("success rate %.3f < 0.95 (%d/%d)", rate, succeeded, total)
	}
	if st := sys.LFM.Stats(); st.CacheHits == 0 {
		t.Error("cache never hit under faults")
	}
}

// TestExtractGapCoalescing drives ExtractStoredOpts directly over a
// deliberately scattered region: raising the gap threshold must never
// change the bytes, must never increase the number of read operations
// (seeks), and at a gap covering the whole field must collapse to a
// single read.
func TestExtractGapCoalescing(t *testing.T) {
	cfg := chaosBaseConfig()
	cfg.Bits = 5 // 32^3 = 8 pages, so page gaps exist
	cfg.NumPET, cfg.NumMRI = 1, 0
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.DB.Exec("select wv.data from warpedVolume wv where wv.studyId = 1")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("volume lookup: %v", err)
	}
	h := res.Rows[0][0].L

	// Short runs on pages 0, 2, and 5 of the 8-page field: a 1-page gap
	// and a 2-page gap between consecutive ranges.
	var runs []region.Run
	for _, p := range []uint64{0, 2, 5} {
		runs = append(runs, region.Run{Lo: p * 4096, Hi: p*4096 + 16})
	}
	r, err := region.FromRuns(sys.Curve, runs)
	if err != nil {
		t.Fatal(err)
	}

	sys.LFM.ResetStats()
	base, err := ExtractStoredOpts(sys.LFM, h, r, ExtractOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if reads := sys.LFM.Stats().Reads; reads != 3 {
		t.Fatalf("seed plan reads = %d, want 3 (one per scattered range)", reads)
	}

	// gap 1 closes the 1-page hole, gap 2 closes both, larger gaps stay
	// at a single contiguous read.
	for _, tc := range []struct{ gap, wantReads uint64 }{{1, 2}, {2, 1}, {8, 1}} {
		before := sys.LFM.Stats()
		got, err := ExtractStoredOpts(sys.LFM, h, r, ExtractOpts{GapPages: tc.gap})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Values, base.Values) || !got.Region.Equal(base.Region) {
			t.Fatalf("gap %d changed extraction bytes", tc.gap)
		}
		if d := sys.LFM.Stats().Sub(before); d.Reads != tc.wantReads {
			t.Errorf("gap %d: reads = %d, want %d", tc.gap, d.Reads, tc.wantReads)
		}
	}
}

// TestPruningBeatsFullVolume is the headline acceptance check: a query
// on a small REGION must read at least 5x fewer device pages than the
// full-volume read of the same study.
func TestPruningBeatsFullVolume(t *testing.T) {
	cfg := Config{
		Bits: 6, NumPET: 1, NumMRI: 0, Seed: 11,
		Method: rencode.Naive, SmallStudies: true, Checksums: true,
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	study := sys.Studies[0].StudyID
	full, err := sys.RunQuery(QuerySpec{StudyID: study, Atlas: "Talairach", FullStudy: true})
	if err != nil {
		t.Fatal(err)
	}
	box := [6]uint32{0, 0, 0, 15, 15, 15}
	small, err := sys.RunQuery(QuerySpec{StudyID: study, Atlas: "Talairach", Box: &box})
	if err != nil {
		t.Fatal(err)
	}
	if small.Meta.LFMPages == 0 || full.Meta.LFMPages == 0 {
		t.Fatalf("page counters empty: box=%d full=%d", small.Meta.LFMPages, full.Meta.LFMPages)
	}
	if small.Meta.LFMPages*5 > full.Meta.LFMPages {
		t.Errorf("box query read %d pages vs full %d — pruning under 5x",
			small.Meta.LFMPages, full.Meta.LFMPages)
	}
	// A structure query is also pruned, if less dramatically.
	str, err := sys.RunQuery(QuerySpec{StudyID: study, Atlas: "Talairach", Structure: "putamen"})
	if err != nil {
		t.Fatal(err)
	}
	if str.Meta.LFMPages >= full.Meta.LFMPages {
		t.Errorf("structure query read %d pages, full read %d — no pruning at all",
			str.Meta.LFMPages, full.Meta.LFMPages)
	}
	t.Logf("pages: full=%d box16=%d putamen=%d", full.Meta.LFMPages, small.Meta.LFMPages, str.Meta.LFMPages)
}

// referenceExtractStored is the extraction as it was assembled before
// the server read straight into the reply blob: plan the page ranges,
// fetch each with its own ReadAt, append the run values from the fetched
// buffers. ExtractStoredOpts must keep returning its bytes for its I/O.
func referenceExtractStored(m *lfm.Manager, h lfm.Handle, r *region.Region, opts ExtractOpts) ([]byte, error) {
	size, err := m.Size(h)
	if err != nil {
		return nil, err
	}
	runs := r.Runs()
	pageSize := m.PageSize()
	type prange struct{ first, last uint64 }
	var ranges []prange
	for _, run := range runs {
		first, last := run.Lo/pageSize, run.Hi/pageSize
		if n := len(ranges); n > 0 && first <= ranges[n-1].last+1+opts.GapPages {
			if last > ranges[n-1].last {
				ranges[n-1].last = last
			}
			continue
		}
		ranges = append(ranges, prange{first, last})
	}
	buffers := make([][]byte, len(ranges))
	offsets := make([]uint64, len(ranges))
	for i, pr := range ranges {
		off := pr.first * pageSize
		n := (pr.last - pr.first + 1) * pageSize
		if off+n > size {
			n = size - off
		}
		if buffers[i], err = m.ReadAt(h, off, n); err != nil {
			return nil, err
		}
		offsets[i] = off
	}
	values := make([]byte, 0, r.NumVoxels())
	ri := 0
	for _, run := range runs {
		for run.Lo/pageSize > ranges[ri].last {
			ri++
		}
		values = append(values, buffers[ri][run.Lo-offsets[ri]:run.Hi-offsets[ri]+1]...)
	}
	return values, nil
}

// TestExtractStoredEqualsReference: over every stored structure and
// band, boxes, scattered runs, the empty and the full region, at the
// seed plan's gap and at the cost model's, ExtractStoredOpts returns the
// reference assembly's values for exactly its LFM traffic, and the
// server's one-step blob is MarshalDataRegion of that result.
func TestExtractStoredEqualsReference(t *testing.T) {
	sys, err := New(Config{Bits: 5, NumPET: 1, NumMRI: 1, Seed: 11, SmallStudies: true, Checksums: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	study := sys.Studies[0].StudyID
	res, err := sys.DB.Exec("select wv.data from warpedVolume wv where wv.studyId = ?", sdb.Int(int64(study)))
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("volume lookup: %v", err)
	}
	h := res.Rows[0][0].L

	regions := []*region.Region{region.Empty(sys.Curve), region.Full(sys.Curve)}
	for _, st := range sys.Atlas.Structures {
		regions = append(regions, st.Region)
	}
	for _, b := range sys.BandRegions[study] {
		regions = append(regions, b.Region)
	}
	rng := rand.New(rand.NewSource(16))
	side := uint32(1) << sys.Cfg.Bits
	for i := 0; i < 20; i++ {
		lo := sfc.Pt(rng.Uint32()%side, rng.Uint32()%side, rng.Uint32()%side)
		hi := sfc.Pt(lo.X+rng.Uint32()%(side-lo.X), lo.Y+rng.Uint32()%(side-lo.Y), lo.Z+rng.Uint32()%(side-lo.Z))
		box, err := region.FromBox(sys.Curve, region.Box{Min: lo, Max: hi})
		if err != nil {
			t.Fatal(err)
		}
		regions = append(regions, box)
		// Scattered runs: some one voxel long, some ending exactly on a
		// page boundary, some covering whole pages.
		var runs []region.Run
		for id := uint64(rng.Intn(5000)); id < sys.Curve.Length(); id += uint64(1 + rng.Intn(9000)) {
			run := region.Run{Lo: id, Hi: min(id+uint64(rng.Intn(6000)), sys.Curve.Length()-1)}
			switch rng.Intn(4) {
			case 0:
				run.Hi = run.Lo
			case 1:
				run.Lo = run.Lo / 4096 * 4096
				run.Hi = min(run.Hi/4096*4096+4095, sys.Curve.Length()-1)
			}
			runs = append(runs, run)
			id = run.Hi + 1
		}
		scattered, err := region.FromRuns(sys.Curve, runs)
		if err != nil {
			t.Fatal(err)
		}
		regions = append(regions, scattered)
	}

	for _, cachePages := range []int{0, 3} {
		sys.LFM.EnableCache(cachePages)
		for _, gap := range []uint64{0, sys.Model.CoalesceGapPages()} {
			opts := ExtractOpts{GapPages: gap}
			for i, r := range regions {
				// Both sides start from an empty cache, so their hit/miss
				// split is comparable.
				sys.LFM.EnableCache(cachePages)
				s0 := sys.LFM.Stats()
				want, err := referenceExtractStored(sys.LFM, h, r, opts)
				if err != nil {
					t.Fatal(err)
				}
				sys.LFM.EnableCache(cachePages)
				s1 := sys.LFM.Stats()
				got, err := ExtractStoredOpts(sys.LFM, h, r, opts)
				if err != nil {
					t.Fatal(err)
				}
				s2 := sys.LFM.Stats()
				if !bytes.Equal(got.Values, want) {
					t.Fatalf("cache %d gap %d region %d (%d runs): values differ from the reference assembly", cachePages, gap, i, r.NumRuns())
				}
				if ref, now := s1.Sub(s0), s2.Sub(s1); ref != now {
					t.Fatalf("cache %d gap %d region %d: LFM traffic differs:\nreference %+v\nnow       %+v", cachePages, gap, i, ref, now)
				}
				wantBlob, err := MarshalDataRegion(got, sys.Cfg.Method)
				if err != nil {
					t.Fatal(err)
				}
				// The server's one step is the extractVoxels UDF, which
				// reads its gap from the server's configuration.
				enc, err := rencode.Encode(sys.Cfg.Method, r)
				if err != nil {
					t.Fatal(err)
				}
				sys.Cfg.ReadGapPages = gap
				one, err := sys.DB.Exec("select extractVoxels(wv.data, ?) from warpedVolume wv where wv.studyId = ?",
					sdb.Bytes(enc), sdb.Int(int64(study)))
				if err != nil || len(one.Rows) != 1 {
					t.Fatalf("extractVoxels: %d rows, %v", len(one.Rows), err)
				}
				if blob := one.Rows[0][0].Y; !bytes.Equal(blob, wantBlob) {
					t.Fatalf("cache %d gap %d region %d: one-step blob differs from MarshalDataRegion(ExtractStoredOpts)", cachePages, gap, i)
				}
			}
		}
	}
}
