package lfm

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"qbism/internal/faultsim"
)

// pattern fills a buffer with a value sequence derived from seed, so
// any page can be recomputed for comparison.
func pattern(n int, seed byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = seed + byte(i%251)
	}
	return out
}

func TestCacheHitMissCounters(t *testing.T) {
	m, _ := New(1<<20, 4096)
	m.EnableCache(8)
	data := pattern(3*4096, 7)
	h, err := m.Allocate(data)
	if err != nil {
		t.Fatal(err)
	}
	m.ResetStats()

	// First full read: 3 misses, 3 device pages.
	got, err := m.Read(h)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Read: %v", err)
	}
	st := m.Stats()
	if st.CacheMisses != 3 || st.CacheHits != 0 || st.PageReads != 3 {
		t.Fatalf("cold read: hits=%d misses=%d pages=%d, want 0/3/3", st.CacheHits, st.CacheMisses, st.PageReads)
	}

	// Second read: all hits, no device traffic.
	got, err = m.Read(h)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("warm Read: %v", err)
	}
	st = m.Stats()
	if st.CacheHits != 3 || st.CacheMisses != 3 || st.PageReads != 3 {
		t.Fatalf("warm read: hits=%d misses=%d pages=%d, want 3/3/3", st.CacheHits, st.CacheMisses, st.PageReads)
	}
	if r := st.CacheHitRate(); r != 0.5 {
		t.Errorf("hit rate = %g, want 0.5", r)
	}
	if cachedPages(m) != 3 {
		t.Errorf("cached pages = %d, want 3", cachedPages(m))
	}

	// Sub-page read entirely inside one cached page: one hit.
	sub, err := m.ReadAt(h, 4096+10, 100)
	if err != nil || !bytes.Equal(sub, data[4096+10:4096+110]) {
		t.Fatalf("ReadAt: %v", err)
	}
	if st = m.Stats(); st.CacheHits != 4 {
		t.Errorf("after sub-page read hits = %d, want 4", st.CacheHits)
	}
}

func TestCacheEviction(t *testing.T) {
	m, _ := New(1<<20, 4096)
	m.EnableCache(2)
	var handles []Handle
	for i := 0; i < 3; i++ {
		h, err := m.Allocate(pattern(4096, byte(i)))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	m.ResetStats()
	// Touch 3 distinct pages through a 2-page cache: the third fill must
	// evict, and every page must still read back correctly.
	for round := 0; round < 2; round++ {
		for i, h := range handles {
			got, err := m.Read(h)
			if err != nil || !bytes.Equal(got, pattern(4096, byte(i))) {
				t.Fatalf("round %d handle %d: %v", round, i, err)
			}
		}
	}
	st := m.Stats()
	if st.CacheEvictions == 0 {
		t.Error("no evictions through a 2-page cache under a 3-page working set")
	}
	if st.CacheHits+st.CacheMisses != 6 {
		t.Errorf("hits+misses = %d, want 6", st.CacheHits+st.CacheMisses)
	}
	if cachedPages(m) != 2 {
		t.Errorf("cached pages = %d, want 2 (capacity)", cachedPages(m))
	}
}

func TestCacheClockSecondChance(t *testing.T) {
	m, _ := New(1<<20, 4096)
	m.EnableCache(2)
	a, _ := m.Allocate(pattern(4096, 1))
	b, _ := m.Allocate(pattern(4096, 2))
	c, _ := m.Allocate(pattern(4096, 3))
	// Fill with a and b; inserting c sweeps both reference bits clear
	// and evicts a. Faulting a back in then finds c referenced (fresh
	// insert) but b cleared — second chance spares c, evicts b.
	m.Read(a)
	m.Read(b)
	m.Read(c)
	m.Read(a)
	m.ResetStats()
	m.Read(c)
	if st := m.Stats(); st.CacheHits != 1 {
		t.Errorf("referenced page c was evicted (hits=%d); CLOCK's second chance should have spared it", st.CacheHits)
	}
}

// TestCacheInvalidation: Corrupt drops the field's cached pages, so bit
// rot on the device is visible to the next read, which fails its
// checksum instead of hitting the clean cached copy.
func TestCacheInvalidation(t *testing.T) {
	t.Run("corrupt", func(t *testing.T) {
		m, _ := New(1<<20, 4096)
		m.EnableCache(8)
		h, err := m.Allocate(pattern(4096, 10))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Read(h); err != nil { // warm the cache
			t.Fatal(err)
		}
		if err := m.Corrupt(h, 100, 0xFF); err != nil {
			t.Fatal(err)
		}
		before := m.Stats()
		if _, err := m.Read(h); !errors.Is(err, ErrChecksum) {
			t.Fatalf("read after Corrupt: %v, want ErrChecksum: bit-rot must be observable", err)
		}
		if d := m.Stats().Sub(before); d.CacheHits != 0 || d.CacheMisses != 1 {
			t.Errorf("read after Corrupt: %d hits, %d misses; want 0 and 1", d.CacheHits, d.CacheMisses)
		}
	})
	// A Corrupt call refused for its offset changes nothing, so it must
	// not cost the next read its cache hits either.
	t.Run("refused corrupt", func(t *testing.T) {
		m, _ := New(1<<20, 4096)
		m.EnableCache(8)
		h, err := m.Allocate(pattern(2*4096, 11))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Read(h); err != nil { // warm the cache
			t.Fatal(err)
		}
		if err := m.Corrupt(h, 2*4096, 0xFF); !errors.Is(err, ErrOutOfRange) {
			t.Fatalf("out-of-range Corrupt: %v, want ErrOutOfRange", err)
		}
		before := m.Stats()
		if _, err := m.Read(h); err != nil {
			t.Fatal(err)
		}
		if d := m.Stats().Sub(before); d.CacheMisses != 0 || d.CacheHits != 2 {
			t.Errorf("read after a refused Corrupt: %d hits, %d misses; want 2 and 0", d.CacheHits, d.CacheMisses)
		}
	})
}

func TestCacheChecksumOnMissOnly(t *testing.T) {
	m, _ := New(1<<20, 4096)
	m.EnableCache(8)
	h, err := m.Allocate(pattern(2*4096, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read(h); err != nil {
		t.Fatal(err)
	}
	// Corrupt the device copy. Invalidation empties the cache, so the
	// next read misses, verifies, and must fail the checksum — and the
	// poisoned page must not be cached.
	if err := m.Corrupt(h, 10, 0x01); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read(h); !errors.Is(err, ErrChecksum) {
		t.Fatalf("read of corrupted field: %v, want ErrChecksum", err)
	}
	if cachedPages(m) != 0 {
		t.Errorf("%d corrupted pages cached; checksum failures must not populate the cache", cachedPages(m))
	}
}

func TestCacheReadFaultsOnMissOnly(t *testing.T) {
	m, _ := New(1<<20, 4096)
	m.EnableCache(8)
	h, err := m.Allocate(pattern(4096, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read(h); err != nil { // warm: page now cached
		t.Fatal(err)
	}
	// With a certain read fault installed, hits must still succeed (no
	// device access), and only a miss can fail.
	m.SetFaults(faultsim.New(faultsim.Policy{Seed: 1, ReadErrProb: 1}))
	if _, err := m.Read(h); err != nil {
		t.Fatalf("cached read drew a device fault: %v", err)
	}
	h2, err := m.Allocate(pattern(4096, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read(h2); !errors.Is(err, ErrReadFault) {
		t.Fatalf("uncached read under ReadErrProb=1: %v, want ErrReadFault", err)
	}
}

// TestCacheConcurrentStress hammers the manager from parallel readers
// of cached fields while a writer keeps allocating new ones (device
// writes, extent growth, field-table growth) — run under -race this proves
// Manager's locking. Every field holds a uniform byte pattern, so a torn
// or stale read is detectable by content alone.
func TestCacheConcurrentStress(t *testing.T) {
	m, _ := New(1<<22, 4096)
	m.EnableCache(16)

	const fields = 4
	const size = 6 * 4096
	handles := make([]Handle, fields)
	for i := range handles {
		h, err := m.Allocate(uniform(size, byte(i)))
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}

	var wg sync.WaitGroup
	errc := make(chan error, 64)
	stop := make(chan struct{})

	// Writer: stores versions i+16, i+32, ... of each field as new
	// fields, each read back whole once it is stored.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for v := byte(16); v < 128; v += 16 {
			for i := range handles {
				want := uniform(size, byte(i)+v)
				h, err := m.Allocate(want)
				if err != nil {
					errc <- err
					return
				}
				if got, err := m.Read(h); err != nil || !bytes.Equal(got, want) {
					errc <- fmt.Errorf("new field %d reads back wrong (err %v)", h, err)
					return
				}
			}
		}
	}()

	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				i := (r + n) % fields
				var got []byte
				var err error
				if n%2 == 0 {
					got, err = m.Read(handles[i])
				} else {
					got, err = m.ReadAt(handles[i], uint64(n%7)*512, 4096)
				}
				if err != nil {
					errc <- err
					return
				}
				for _, b := range got {
					if b != byte(i) {
						errc <- fmt.Errorf("field %d read byte %d, want %d", i, b, i)
						return
					}
				}
			}
		}(r)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// cachedPages returns how many pages the cache currently holds.
func cachedPages(m *Manager) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cache == nil {
		return 0
	}
	return len(m.cache.index)
}

// uniform returns n copies of b — the stress test's tearing detector.
func uniform(n int, b byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return out
}

func TestEnableCacheToggle(t *testing.T) {
	m, _ := New(1<<20, 4096)
	h, _ := m.Allocate(pattern(4096, 1))
	m.EnableCache(4)
	if _, err := m.Read(h); err != nil {
		t.Fatal(err)
	}
	if cachedPages(m) != 1 {
		t.Fatalf("cached pages = %d", cachedPages(m))
	}
	m.EnableCache(0) // disable
	if cachedPages(m) != 0 {
		t.Error("disable did not drop the cache")
	}
	got, err := m.Read(h)
	if err != nil || !bytes.Equal(got, pattern(4096, 1)) {
		t.Fatalf("uncached read after disable: %v", err)
	}
}
