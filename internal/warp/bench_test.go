package warp_test

import (
	"testing"

	"qbism/internal/synth"
	"qbism/internal/warp"
)

// BenchmarkResample warps one paper-scale PET study (128x128x51) to a
// 128^3 atlas volume, as every PET study's load does.
func BenchmarkResample(b *testing.B) {
	raw, err := synth.Generate(synth.Params{StudyID: 1, PatientID: 1, Modality: synth.PET, Seed: 1993, AtlasSide: 128})
	if err != nil {
		b.Fatal(err)
	}
	fitted, err := raw.Register()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := warp.Resample(raw.Grid, raw.Data, fitted, 128); err != nil {
			b.Fatal(err)
		}
	}
}
