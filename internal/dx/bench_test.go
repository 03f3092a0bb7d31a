package dx

import (
	"testing"

	"qbism/internal/atlas"
	"qbism/internal/region"
	"qbism/internal/sfc"
	"qbism/internal/synth"
	"qbism/internal/volume"
)

// BenchmarkRender times Field.Render, MIP along Z, at the paper's Bits 7
// on the two shapes a DX render meets: an atlas structure (ntal1, long
// curve runs) and an intensity band of a synthesized PET study (the
// stored width-32 band 128–159, short runs). It reports nanoseconds per
// rendered voxel, the unit of the render column's per-voxel cost.
func BenchmarkRender(b *testing.B) {
	c := sfc.MustNew(sfc.Hilbert, 3, 7)
	side := 1 << c.Bits()
	raw, err := synth.Generate(synth.Params{StudyID: 1, PatientID: 1, Modality: synth.PET, Seed: 1993, AtlasSide: side})
	if err != nil {
		b.Fatal(err)
	}
	scan, _, err := raw.WarpToAtlas(side)
	if err != nil {
		b.Fatal(err)
	}
	v, err := volume.FromScanline(c, scan)
	if err != nil {
		b.Fatal(err)
	}
	a, err := atlas.Build(c, false)
	if err != nil {
		b.Fatal(err)
	}
	st, err := a.ByName("ntal1")
	if err != nil {
		b.Fatal(err)
	}
	band, err := v.Band(128, 159)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		r    *region.Region
	}{
		{"structure-ntal1", st.Region},
		{"band-128-159", band},
	} {
		b.Run(bc.name, func(b *testing.B) {
			d, err := volume.Extract(v, bc.r)
			if err != nil {
				b.Fatal(err)
			}
			f, _, err := ImportVolume(d)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.Render(RenderOpts{Axis: 2, Mode: MIP}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(d.Region.NumVoxels()), "ns/voxel")
		})
	}
}
