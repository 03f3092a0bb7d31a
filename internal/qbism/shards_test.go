package qbism

import (
	"testing"

	"qbism/internal/region"
)

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

// populationBand is one stored band and its population answer: the
// intersection of the studies' band REGIONs the loader kept in memory.
type populationBand struct {
	lo, hi int
	want   *region.Region
}

// populationCluster is the population tests' cluster: five PET studies
// over two shards of one node each. It returns the PET studies and every
// band, answered by an unsharded bare server over the same corpus.
func populationCluster(t *testing.T, opts ...Option) (*ClusterSystem, []int, []populationBand) {
	t.Helper()
	base := Config{Bits: 5, NumPET: 5, NumMRI: 1, Seed: 7, SmallStudies: true}
	cs, err := NewClusterSystem(ClusterConfig{Shards: 2, Replicas: -1, Base: base}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cs.Close() })
	control := bareServer(t, base)
	pets := control.PETStudyIDs()
	var bands []populationBand
	for bi, b := range control.BandRegions[pets[0]] {
		var regions []*region.Region
		for _, id := range pets {
			regions = append(regions, control.BandRegions[id][bi].Region)
		}
		want, err := region.IntersectN(regions...)
		if err != nil {
			t.Fatal(err)
		}
		bands = append(bands, populationBand{lo: int(b.Lo), hi: int(b.Hi), want: want})
	}
	return cs, pets, bands
}

// TestClusterConsistentBandRegionAllocBudget pins what the cluster's
// population call allocates, every band of five PET studies on two
// shards at one worker, and checks each answer against the in-memory
// intersection. The ceiling is the measured count, the most any band
// takes: per study the request, the reply, its meta header's string and
// the decoded REGION and its run list; then the results, the errors and
// the pool's closure, and the answer and its run list. The partial
// accounting allocates nothing when no shard is lost, and an empty band
// decodes, and folds, into no run list. While the call ran a whole DX
// query per study — import, render, cache entry, metrics — and then
// decoded each answer again, the same bands took 41 to 47.
func TestClusterConsistentBandRegionAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates, a few objects more or less per call from run to run")
	}
	const ceiling = 30
	cs, pets, bands := populationCluster(t)
	for _, b := range bands {
		got, partial, err := cs.ConsistentBandRegion(pets, b.lo, b.hi, "", 1)
		if err != nil || partial != nil {
			t.Fatalf("band %d-%d: %v (partial %v)", b.lo, b.hi, err, partial)
		}
		if !got.Equal(b.want) {
			t.Fatalf("band %d-%d: %v, in-memory intersection %v", b.lo, b.hi, got, b.want)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, _, err := cs.ConsistentBandRegion(pets, b.lo, b.hi, "", 1); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > ceiling {
			t.Errorf("band %d-%d: %.0f allocations, ceiling %d — is a reply imported or rendered, or decoded twice, again?",
				b.lo, b.hi, allocs, ceiling)
		}
	}
}

// TestClusterConsistentBandRegionDoesNoDXWork: a cluster population call
// reads each study's band REGION and folds it, as the server's own call
// does, and nothing more — no band spec lands in the DX cache, no query
// is counted or slow-logged (the threshold here catches every query).
// A RunQuery of the same spec afterwards shows the checks can fail.
func TestClusterConsistentBandRegionDoesNoDXWork(t *testing.T) {
	cs, pets, bands := populationCluster(t, WithSlowLog(1))
	b := bands[len(bands)/2]
	lo, hi := b.lo, b.hi
	got, partial, err := cs.ConsistentBandRegion(pets, lo, hi, "", 2)
	if err != nil || partial != nil || !got.Equal(b.want) {
		t.Fatalf("band %d-%d: %v, %v (partial %v)", lo, hi, got, err, partial)
	}
	for _, id := range pets {
		spec := QuerySpec{StudyID: id, Atlas: "Talairach", HasBand: true, BandLo: lo, BandHi: hi}
		if _, ok := cs.Cache.Get(cacheKeyOf(spec)); ok {
			t.Errorf("study %d: the band spec is in the DX cache", id)
		}
	}
	for _, name := range []string{"qbism_queries_total", "qbism_query_errors_total", "qbism_retries_total"} {
		if n := cs.Metrics.Counter(name).Value(); n != 0 {
			t.Errorf("%s = %d after a population call, want 0", name, n)
		}
	}
	if n := cs.SlowLog.Total(); n != 0 {
		t.Errorf("%d slow-log entries after a population call, want 0", n)
	}
	spec := QuerySpec{StudyID: pets[0], Atlas: "Talairach", HasBand: true, BandLo: lo, BandHi: hi}
	if _, err := cs.RunQuery(spec); err != nil {
		t.Fatal(err)
	}
	if _, ok := cs.Cache.Get(cacheKeyOf(spec)); !ok {
		t.Error("a RunQuery of the band spec left no DX cache entry: the check above proves nothing")
	}
	if n := cs.Metrics.Counter("qbism_queries_total").Value(); n != 1 {
		t.Errorf("qbism_queries_total = %d after one RunQuery, want 1", n)
	}
}
