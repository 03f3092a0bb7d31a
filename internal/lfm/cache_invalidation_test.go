package lfm

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"qbism/internal/faultsim"
)

// Cache invalidation edge cases: the mutating operations (Overwrite,
// Free, Corrupt) racing concurrent readers, and the rule that a page
// whose fill failed — device fault or checksum mismatch — is never
// inserted into the cache. Run under `go test -race`.

// forCacheSizes runs a racing-readers test twice: with a cache that holds
// the whole working set, and with one well under it, where every read
// recycles frames under the other readers.
func forCacheSizes(t *testing.T, test func(t *testing.T, cachePages int)) {
	for _, cachePages := range []int{8, 3} {
		t.Run(fmt.Sprintf("cachePages=%d", cachePages), func(t *testing.T) { test(t, cachePages) })
	}
}

func cachedManager(t *testing.T, cachePages int, checksums bool) *Manager {
	t.Helper()
	m, err := New(1<<20, 4096)
	if err != nil {
		t.Fatal(err)
	}
	m.EnableCache(cachePages)
	if checksums {
		if err := m.EnableChecksums(); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestFailedFillNeverCached is the failed-page-never-cached rule, fault
// flavor: a scheduled device ReadErr on the first page miss must leave
// the cache empty, and the retry must read the true bytes from the
// device — not a poisoned cache entry.
func TestFailedFillNeverCached(t *testing.T) {
	m := cachedManager(t, 16, true)
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
	if got := m.CachedPages(); got != 0 {
		t.Fatalf("failed read left %d pages in the cache", got)
	}
	got, err := m.Read(h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("retry after fault returned wrong bytes")
	}
	if m.CachedPages() != 3 {
		t.Fatalf("clean read cached %d pages, want 3", m.CachedPages())
	}
}

// TestChecksumFailNeverCached is the same rule, integrity flavor: a
// page that fails CRC verification on fill must not be cached, so after
// the damage is repaired (Overwrite refreshes data and checksums) reads
// serve correct bytes.
func TestChecksumFailNeverCached(t *testing.T) {
	m := cachedManager(t, 16, true)
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
	if got := m.CachedPages(); got > 1 {
		t.Fatalf("%d pages cached after checksum failure, want at most the clean prefix", got)
	}
	if _, err := m.ReadAt(h, 4096, 4096); !errors.Is(err, ErrChecksum) {
		t.Fatalf("rotten page served from somewhere: %v", err)
	}
	if err := m.Overwrite(h, data); err != nil {
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

// TestOverwriteRacingReaders hammers one field with concurrent readers
// while the writer flips it between two patterns. Reads hold the
// manager's lock, so every read must observe one pattern in full —
// never a torn mix, never a stale cached page of the old pattern
// alongside a fresh page of the new.
func TestOverwriteRacingReaders(t *testing.T) { forCacheSizes(t, testOverwriteRacingReaders) }

func testOverwriteRacingReaders(t *testing.T, cachePages int) {
	m := cachedManager(t, cachePages, true)
	const size = 4 * 4096
	a, b := pattern(size, 0x11), pattern(size, 0xEE)
	h, err := m.Allocate(a)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 8)
	for r := 0; r < 4; r++ {
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
					errs <- err
					return
				}
				if !bytes.Equal(got, a) && !bytes.Equal(got, b) {
					errs <- fmt.Errorf("read observed a torn or stale mix of patterns")
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		next := a
		if i%2 == 0 {
			next = b
		}
		if err := m.Overwrite(h, next); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestFreeRacingReaders frees fields out from under concurrent readers
// and reallocates new ones into the recycled device blocks. Readers of
// a freed handle must get ErrUnknownHandle (never another field's
// bytes), and fresh fields must never see stale cache entries even
// though they reuse device space — handles are never recycled.
func TestFreeRacingReaders(t *testing.T) { forCacheSizes(t, testFreeRacingReaders) }

func testFreeRacingReaders(t *testing.T, cachePages int) {
	m := cachedManager(t, cachePages, false)
	const size = 2 * 4096
	var mu sync.Mutex
	live := make(map[Handle][]byte)
	handles := make([]Handle, 0, 8)
	for i := 0; i < 4; i++ {
		data := pattern(size, byte(0x20+i))
		h, err := m.Allocate(data)
		if err != nil {
			t.Fatal(err)
		}
		live[h] = data
		handles = append(handles, h)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				h := handles[(r+i)%len(handles)]
				want := live[h]
				mu.Unlock()
				got, err := m.Read(h)
				if err != nil {
					if errors.Is(err, ErrUnknownHandle) {
						continue // freed between pick and read — legal
					}
					errs <- err
					return
				}
				// A successful read must match SOME generation of that
				// handle's content; since Overwrite is not used here, the
				// handle's bytes never change while it is live.
				if want != nil && !bytes.Equal(got, want) {
					errs <- fmt.Errorf("handle %d read another field's bytes", h)
					return
				}
			}
		}(r)
	}
	for gen := 0; gen < 100; gen++ {
		mu.Lock()
		victim := handles[gen%len(handles)]
		mu.Unlock()
		if err := m.Free(victim); err != nil {
			t.Fatal(err)
		}
		data := pattern(size, byte(gen))
		h, err := m.Allocate(data)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		delete(live, victim)
		live[h] = data
		for i, old := range handles {
			if old == victim {
				handles[i] = h
			}
		}
		mu.Unlock()
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestCorruptRacingReaders injects at-rest bit rot while checksummed
// readers run. Every read returns either the true bytes (read won the
// race, or rot not yet injected on its pages) or ErrChecksum — never
// silently wrong data served from a stale cache entry.
func TestCorruptRacingReaders(t *testing.T) { forCacheSizes(t, testCorruptRacingReaders) }

func testCorruptRacingReaders(t *testing.T, cachePages int) {
	m := cachedManager(t, cachePages, true)
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
