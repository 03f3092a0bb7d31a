package qbism

import "testing"

// Traced vs untraced suite benchmarks on a 64^3, six-study corpus; run
// in one process so the comparison shares host conditions:
//
//	go test ./internal/qbism -bench BenchmarkSuite -run xxx

func benchSuite(b *testing.B, trace bool) {
	cfg := Config{Bits: 6, NumPET: 5, NumMRI: 1, Seed: 1993, SmallStudies: true}
	cfg.Trace = trace
	sys, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	specs := sys.Table3Queries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			if _, err := sys.RunQuery(spec); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkSuiteUntraced(b *testing.B) { benchSuite(b, false) }
func BenchmarkSuiteTraced(b *testing.B)   { benchSuite(b, true) }
