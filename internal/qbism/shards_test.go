package qbism

import "testing"

// BenchmarkNewClusterSystem builds and closes a 2-shard, primary+replica
// cluster at Bits 5: B/op and allocs/op are what four node loads and the
// one client in front of them cost (DESIGN.md §31). `make bench-smoke`
// runs it once.
func BenchmarkNewClusterSystem(b *testing.B) {
	cfg := ClusterConfig{Shards: 2, Replicas: 1, Base: Config{
		Bits: 5, NumPET: 2, NumMRI: 1, SmallStudies: true,
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cs, err := NewClusterSystem(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := cs.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
