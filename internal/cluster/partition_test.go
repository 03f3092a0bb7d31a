package cluster

import "testing"

// TestKeyHashStable pins the FNV-1a hash values: routing and jitter
// streams must not drift across refactors or Go versions.
func TestKeyHashStable(t *testing.T) {
	cases := []struct {
		key  Key
		want uint64
	}{
		{Key{Patient: 0, Study: 0}, 0x68752350ae1d483f},
		{Key{Patient: 1, Study: 1}, 0x25e841e2a8996995},
		{Key{Patient: 7, Study: 3}, 0x46bbc8fca1745b7f},
	}
	for _, c := range cases {
		got := c.key.Hash()
		if c.want == 0 {
			t.Logf("%v -> %#x", c.key, got)
			continue
		}
		if got != c.want {
			t.Errorf("Hash(%v) = %#x, want %#x", c.key, got, c.want)
		}
	}
}

func TestKeyHashDistinct(t *testing.T) {
	seen := map[uint64]Key{}
	for p := 0; p < 50; p++ {
		for s := 0; s < 50; s++ {
			k := Key{Patient: p, Study: s}
			h := k.Hash()
			if prev, dup := seen[h]; dup {
				t.Fatalf("hash collision: %v and %v both -> %#x", prev, k, h)
			}
			seen[h] = k
		}
	}
	// Patient/study must not be interchangeable.
	if (Key{Patient: 1, Study: 2}).Hash() == (Key{Patient: 2, Study: 1}).Hash() {
		t.Fatal("Hash is symmetric in (patient, study)")
	}
}

func TestPartitionerTable(t *testing.T) {
	cases := []struct {
		name   string
		shards int
		keys   []Key
		check  func(t *testing.T, p Partitioner)
	}{
		{
			name:   "single node degenerate",
			shards: 1,
			check: func(t *testing.T, p Partitioner) {
				for i := 0; i < 100; i++ {
					if got := p.Shard(Key{Patient: i, Study: i * 3}); got != 0 {
						t.Fatalf("K=1 shard = %d, want 0", got)
					}
				}
			},
		},
		{
			name:   "clamped to one",
			shards: 0,
			check: func(t *testing.T, p Partitioner) {
				if p.shards != 1 {
					t.Fatalf("shards = %d, want 1", p.shards)
				}
				if got := p.Shard(Key{Patient: 9, Study: 9}); got != 0 {
					t.Fatalf("shard = %d, want 0", got)
				}
			},
		},
		{
			name:   "empty corpus routes nothing but stays valid",
			shards: 4,
			keys:   nil,
			check: func(t *testing.T, p Partitioner) {
				if p.shards != 4 {
					t.Fatalf("shards = %d, want 4", p.shards)
				}
			},
		},
		{
			name:   "in range and deterministic",
			shards: 5,
			check: func(t *testing.T, p Partitioner) {
				for i := 0; i < 200; i++ {
					k := Key{Patient: i % 17, Study: i}
					got := p.Shard(k)
					if got < 0 || got >= 5 {
						t.Fatalf("shard %d out of range", got)
					}
					if again := p.Shard(k); again != got {
						t.Fatalf("Shard(%v) unstable: %d then %d", k, got, again)
					}
				}
			},
		},
		{
			name:   "spreads load",
			shards: 4,
			check: func(t *testing.T, p Partitioner) {
				counts := make([]int, 4)
				for i := 0; i < 400; i++ {
					counts[p.Shard(Key{Patient: i + 1, Study: i + 1})]++
				}
				for sh, n := range counts {
					if n == 0 {
						t.Fatalf("shard %d got no keys out of 400", sh)
					}
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.check(t, NewPartitioner(c.shards))
		})
	}
}

// TestPartitionerKeyStabilityAcrossK documents that a key's *hash* is
// independent of K (only the modulus changes), so resharding moves
// keys predictably rather than scrambling the hash space.
func TestPartitionerKeyStabilityAcrossK(t *testing.T) {
	k := Key{Patient: 12, Study: 34}
	h := k.Hash()
	for _, shards := range []int{1, 2, 3, 5, 8} {
		p := NewPartitioner(shards)
		want := int(h % uint64(shards))
		if got := p.Shard(k); got != want {
			t.Fatalf("K=%d: Shard = %d, want hash%%K = %d", shards, got, want)
		}
	}
}
