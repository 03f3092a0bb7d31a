package lfm

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"qbism/internal/faultsim"
)

// Cache invalidation edge cases: Corrupt, the one change to stored
// bytes, racing concurrent readers, and the rule that a page whose fill
// failed — device fault or checksum mismatch — is never inserted into
// the cache. Run under `go test -race`.

// forCacheSizes runs a racing-readers test twice: with a cache that holds
// the whole working set, and with one well under it, where every read
// recycles frames under the other readers.
func forCacheSizes(t *testing.T, test func(t *testing.T, cachePages int)) {
	for _, cachePages := range []int{8, 3} {
		t.Run(fmt.Sprintf("cachePages=%d", cachePages), func(t *testing.T) { test(t, cachePages) })
	}
}

func cachedManager(t *testing.T, cachePages int) *Manager {
	t.Helper()
	m, err := New(1<<20, 4096)
	if err != nil {
		t.Fatal(err)
	}
	m.EnableCache(cachePages)
	return m
}

// TestFailedFillNeverCached is the failed-page-never-cached rule, fault
// flavor: a scheduled device ReadErr on the first page miss must leave
// the cache empty, and the retry must read the true bytes from the
// device — not a poisoned cache entry.
func TestFailedFillNeverCached(t *testing.T) {
	m := cachedManager(t, 16)
	data := pattern(3*4096, 0xA5)
	h, err := m.Allocate(data)
	if err != nil {
		t.Fatal(err)
	}
	// Fault the very first read-fault decision (decisions are drawn per
	// page miss on the cached path).
	m.SetFaults(faultsim.New(faultsim.Policy{
		Schedule: []faultsim.Scheduled{{Op: 1, Kind: faultsim.ReadErr}},
	}))
	if _, err := m.Read(h); !errors.Is(err, ErrReadFault) {
		t.Fatalf("want ErrReadFault, got %v", err)
	}
	if got := cachedPages(m); got != 0 {
		t.Fatalf("failed read left %d pages in the cache", got)
	}
	got, err := m.Read(h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("retry after fault returned wrong bytes")
	}
	if cachedPages(m) != 3 {
		t.Fatalf("clean read cached %d pages, want 3", cachedPages(m))
	}
}

// TestChecksumFailNeverCached is the same rule, integrity flavor: a
// page that fails CRC verification on fill must not be cached, so after
// the damage is repaired (the bit flipped back) reads serve correct
// bytes.
func TestChecksumFailNeverCached(t *testing.T) {
	m := cachedManager(t, 16)
	data := pattern(2*4096, 0x3C)
	h, err := m.Allocate(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Corrupt(h, 4096+7, 0xFF); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read(h); !errors.Is(err, ErrChecksum) {
		t.Fatalf("want ErrChecksum, got %v", err)
	}
	// Page 0 verified clean before page 1 failed; only clean pages may
	// be cached, and the rotten one must not be.
	if got := cachedPages(m); got > 1 {
		t.Fatalf("%d pages cached after checksum failure, want at most the clean prefix", got)
	}
	if _, err := m.ReadAt(h, 4096, 4096); !errors.Is(err, ErrChecksum) {
		t.Fatalf("rotten page served from somewhere: %v", err)
	}
	if err := m.Corrupt(h, 4096+7, 0xFF); err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("repaired field reads wrong bytes")
	}
}

// TestCorruptRacingReaders injects at-rest bit rot while checksummed
// readers run. Every read returns either the true bytes (read won the
// race, or rot not yet injected on its pages) or ErrChecksum — never
// silently wrong data served from a stale cache entry.
func TestCorruptRacingReaders(t *testing.T) { forCacheSizes(t, testCorruptRacingReaders) }

func testCorruptRacingReaders(t *testing.T, cachePages int) {
	m := cachedManager(t, cachePages)
	const size = 4 * 4096
	data := pattern(size, 0x77)
	h, err := m.Allocate(data)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 4)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := m.Read(h)
				if err != nil {
					if errors.Is(err, ErrChecksum) {
						continue // rot detected — correct outcome
					}
					errs <- err
					return
				}
				if !bytes.Equal(got, data) {
					errs <- fmt.Errorf("silently wrong bytes served")
					return
				}
			}
		}()
	}
	for i := 0; i < 100; i++ {
		off := uint64(i % size)
		if err := m.Corrupt(h, off, 0x01); err != nil {
			t.Fatal(err)
		}
		// Heal: flip the same bit back so readers alternate between
		// clean and rotten device states.
		if err := m.Corrupt(h, off, 0x01); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
