package dx

import (
	"testing"

	"qbism/internal/atlas"
	"qbism/internal/region"
	"qbism/internal/rencode"
	"qbism/internal/sfc"
	"qbism/internal/synth"
	"qbism/internal/volume"
)

// BenchmarkRender times Field.Render, MIP along Z, at the paper's Bits 7
// on the shapes a DX render meets: an atlas structure (ntal1, long curve
// runs), the paper's Q2 box (30–100 on every axis), the full grid, and
// an intensity band of a synthesized PET study (the stored width-32 band
// 128–159, short runs). Each shape renders twice: from a field imported
// from its decoded Region, and as a reply arrives — "-wire" takes the
// REGION's Elias γ bytes and the values through ImportEncoded and
// Render, encoded bytes in, image out. It reports nanoseconds per
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
	box, err := region.FromBox(c, region.Box{Min: sfc.Pt(30, 30, 30), Max: sfc.Pt(100, 100, 100)})
	if err != nil {
		b.Fatal(err)
	}
	band, err := v.Band(128, 159)
	if err != nil {
		b.Fatal(err)
	}
	opts := RenderOpts{Axis: 2, Mode: MIP}
	for _, bc := range []struct {
		name string
		r    *region.Region
	}{
		{"structure-ntal1", st.Region},
		{"box-q2", box},
		{"full-grid", region.Full(c)},
		{"band-128-159", band},
	} {
		d, err := volume.Extract(v, bc.r)
		if err != nil {
			b.Fatal(err)
		}
		perVoxel := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(d.Region.NumVoxels()), "ns/voxel")
		}
		b.Run(bc.name, func(b *testing.B) {
			f, _, err := ImportVolume(d)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.Render(opts); err != nil {
					b.Fatal(err)
				}
			}
			perVoxel(b)
		})
		b.Run(bc.name+"-wire", func(b *testing.B) {
			enc, err := rencode.Encode(rencode.Elias, bc.r)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var f Field
				if _, err := ImportEncoded(&f, enc, d.Values); err != nil {
					b.Fatal(err)
				}
				if _, err := f.Render(opts); err != nil {
					b.Fatal(err)
				}
			}
			perVoxel(b)
		})
	}
}
