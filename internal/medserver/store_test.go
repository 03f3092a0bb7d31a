package medserver

import (
	"sync"
	"testing"

	"qbism/internal/atlas"
	"qbism/internal/region"
	"qbism/internal/rencode"
	"qbism/internal/sfc"
)

// codecStructures are the REGIONs of the repo benchmark's small
// structures at paper scale (Bits 7), the ones a daemon_small reply
// carries: 82 to 962 runs each, 2 960 in all.
var codecStructures = sync.OnceValue(func() []*region.Region {
	a, err := atlas.Build(sfc.MustNew(sfc.Hilbert, 3, 7), false)
	if err != nil {
		panic(err)
	}
	var out []*region.Region
	for _, name := range []string{"ntal", "putamen", "hippocampus", "caudate", "thalamus", "amygdala", "cerebellum", "brainstem"} {
		st, err := a.ByName(name)
		if err != nil {
			panic(err)
		}
		out = append(out, st.Region)
	}
	return out
})

// BenchmarkDataRegionCodec is the REGION half of a DATA_REGION on both
// sides of the wire, for the wire's codec (Elias γ) and the naive runs it
// replaced: the server encoding each small structure into its reply blob
// (newDataRegionBlob with no free list, one allocation: the blob) and the
// client decoding the blob (UnmarshalDataRegion). ns/run is per run of
// the REGIONs.
// `make bench-smoke` runs a few iterations.
func BenchmarkDataRegionCodec(b *testing.B) {
	regions := codecStructures()
	runs := 0
	for _, r := range regions {
		runs += r.NumRuns()
	}
	for _, m := range []rencode.Method{rencode.Naive, rencode.Elias} {
		blobs := make([][]byte, len(regions))
		for i, r := range regions {
			blob, _, err := newDataRegionBlob(nil, r, m)
			if err != nil {
				b.Fatal(err)
			}
			blobs[i] = blob
		}
		perRun := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*runs), "ns/run")
		}
		b.Run(m.String()+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, r := range regions {
					if _, _, err := newDataRegionBlob(nil, r, m); err != nil {
						b.Fatal(err)
					}
				}
			}
			perRun(b)
		})
		b.Run(m.String()+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, blob := range blobs {
					if _, err := UnmarshalDataRegion(blob); err != nil {
						b.Fatal(err)
					}
				}
			}
			perRun(b)
		})
	}
}
