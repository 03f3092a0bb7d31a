package lfm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"qbism/internal/faultsim"
)

// The page cache owns its frames and recycles them: a miss is filled
// into the spare frame and the evicted page's frame becomes the next
// spare. These tests pin what that buys (a full cache serves misses
// without allocating) and what it must not cost (a failed fill changes
// nothing, a recycled frame never shows through), and that ReadAtInto is
// ReadAt in everything but who owns the result.

// TestCacheThrashAllocatesNothing: with the working set far larger than
// the cache, every page request is a miss and an eviction, and none of
// them allocates once the cache has filled.
func TestCacheThrashAllocatesNothing(t *testing.T) {
	for _, checksums := range []bool{false, true} {
		t.Run(fmt.Sprintf("checksums=%v", checksums), func(t *testing.T) {
			m, err := New(1<<20, 4096)
			if err != nil {
				t.Fatal(err)
			}
			const pages, cachePages = 32, 4
			data := pattern(pages*4096-100, 0x42) // the last page is short
			h, err := m.Allocate(data)
			if err != nil {
				t.Fatal(err)
			}
			if checksums {
				if err := m.EnableChecksums(); err != nil {
					t.Fatal(err)
				}
			}
			m.EnableCache(cachePages)
			// One pass in 8-page reads: a cyclic scan through a CLOCK
			// cache an eighth of its size never hits.
			dst := make([]byte, 8*4096)
			scan := func() {
				for off := 0; off < len(data); off += len(dst) {
					n := min(len(dst), len(data)-off)
					if err := m.ReadAtInto(h, uint64(off), dst[:n]); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(dst[:n], data[off:off+n]) {
						t.Fatalf("wrong bytes at offset %d", off)
					}
				}
			}
			scan() // fills the cache: the only frames ever allocated
			before := m.Stats()
			const runs = 20
			if got := testing.AllocsPerRun(runs, scan); got != 0 {
				t.Errorf("%.0f allocations per scan of %d misses, want 0", got, pages)
			}
			d := m.Stats().Sub(before)
			// AllocsPerRun runs the function once more to warm up.
			if want := uint64((runs + 1) * pages); d.CacheMisses != want || d.CacheEvictions != want || d.CacheHits != 0 {
				t.Errorf("misses %d evictions %d hits %d, want %d/%d/0: the scan was meant to thrash",
					d.CacheMisses, d.CacheEvictions, d.CacheHits, want, want)
			}
			if got := m.CachedPages(); got != cachePages {
				t.Errorf("cache holds %d pages, want %d", got, cachePages)
			}
		})
	}
}

// TestCacheFramesAreLazy: enabling a large cache allocates no frames;
// they appear one per page actually cached.
func TestCacheFramesAreLazy(t *testing.T) {
	m, err := New(1<<20, 4096)
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.Allocate(pattern(3*4096, 0x10))
	if err != nil {
		t.Fatal(err)
	}
	m.EnableCache(8192)
	frames := func() int {
		n := 0
		for _, e := range m.cache.entries {
			if e.data != nil {
				n++
			}
		}
		if m.cache.spare != nil {
			n++
		}
		return n
	}
	if got := frames(); got != 0 {
		t.Fatalf("EnableCache allocated %d frames up front", got)
	}
	if _, err := m.Read(h); err != nil {
		t.Fatal(err)
	}
	if got := frames(); got != 3 {
		t.Errorf("%d frames after caching 3 pages, want 3", got)
	}
}

// TestFailedFillLeavesVictimIntact: a fill that fails — device fault or
// checksum mismatch — after the cache has started recycling frames
// neither evicts nor caches, and the page that would have been evicted
// still hits with its own bytes.
func TestFailedFillLeavesVictimIntact(t *testing.T) {
	for _, kind := range []faultsim.Kind{faultsim.ReadErr, faultsim.PageCorrupt} {
		t.Run(kind.String(), func(t *testing.T) {
			m := cachedManager(t, 2, true)
			data := pattern(4*4096, 0x5A)
			h, err := m.Allocate(data)
			if err != nil {
				t.Fatal(err)
			}
			page := make([]byte, 4096)
			read := func(j int) error { return m.ReadAtInto(h, uint64(j)*4096, page) }
			// Pages 0, 1, then 2: CLOCK evicts page 0, whose frame — still
			// holding page 0's bytes — becomes the spare. Page 1 is next
			// in line.
			for j := 0; j < 3; j++ {
				if err := read(j); err != nil {
					t.Fatal(err)
				}
			}
			before := m.Stats()
			if before.CacheEvictions != 1 {
				t.Fatalf("set-up made %d evictions, want 1", before.CacheEvictions)
			}
			// The next page miss draws the fault.
			m.SetFaults(faultsim.New(faultsim.Policy{Schedule: []faultsim.Scheduled{{Op: 1, Kind: kind}}}))
			want := ErrReadFault
			if kind == faultsim.PageCorrupt {
				want = ErrChecksum
			}
			if err := read(3); !errors.Is(err, want) {
				t.Fatalf("fill of page 3: got %v, want %v", err, want)
			}
			d := m.Stats().Sub(before)
			if d.CacheEvictions != 0 || d.CacheMisses != 1 || m.CachedPages() != 2 {
				t.Errorf("failed fill: %d evictions, %d misses, %d pages cached; want 0, 1, 2",
					d.CacheEvictions, d.CacheMisses, m.CachedPages())
			}
			// The would-be victim and its neighbour are still there, whole.
			for _, j := range []int{1, 2} {
				if err := read(j); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(page, data[j*4096:(j+1)*4096]) {
					t.Errorf("page %d reads wrong bytes after the failed fill", j)
				}
			}
			if d := m.Stats().Sub(before); d.CacheHits != 2 || d.CacheMisses != 1 {
				t.Errorf("after the failed fill: %d hits, %d misses; want 2 hits and the 1 failed miss", d.CacheHits, d.CacheMisses)
			}
			// And the page that failed is simply not cached: the retry
			// is a clean miss that evicts as usual.
			if err := read(3); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(page, data[3*4096:]) {
				t.Error("retry of the failed page reads wrong bytes")
			}
			if d := m.Stats().Sub(before); d.CacheEvictions != 1 {
				t.Errorf("retry made %d evictions, want 1", d.CacheEvictions)
			}
		})
	}
}

// TestShortPageFrameReuse: the frame that held a field's short last
// page goes on to hold a full page, and the other way round, with
// nothing of the previous tenant showing.
func TestShortPageFrameReuse(t *testing.T) {
	m := cachedManager(t, 1, false)
	short := pattern(4096+100, 0x01) // page 1 is 100 bytes
	full := pattern(2*4096, 0x80)
	hs, err := m.Allocate(short)
	if err != nil {
		t.Fatal(err)
	}
	hf, err := m.Allocate(full)
	if err != nil {
		t.Fatal(err)
	}
	check := func(h Handle, off, n uint64, want []byte) {
		t.Helper()
		got, err := m.ReadAt(h, off, n)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[off:off+n]) {
			t.Errorf("field %d [%d,%d): wrong bytes", h, off, off+n)
		}
	}
	// With one slot and one spare, the two frames alternate: every fill
	// below lands in the frame the read before last left behind.
	check(hs, 4096, 100, short) // frame A: short page
	check(hf, 0, 4096, full)    // frame B; A (short) becomes the spare
	check(hf, 4096, 4096, full) // frame A, now a full page
	check(hs, 4096, 100, short) // frame B, now a short page
	check(hf, 0, 4096, full)    // frame A again
	check(hs, 4000, 196, short) // straddles into the short page
	if st := m.Stats(); st.CacheHits != 0 {
		t.Errorf("%d cache hits in a sequence meant to recycle on every read", st.CacheHits)
	}
}

// TestReadAtIntoEqualsReadAt drives two identically built managers with
// the same seeded sequence of reads — ReadAt on one, ReadAtInto on the
// other — and requires the same bytes, the same error and the same
// Stats after every operation, in every read-path configuration.
func TestReadAtIntoEqualsReadAt(t *testing.T) {
	faults := faultsim.Policy{Seed: 99, ReadErrProb: 0.03, PageCorruptProb: 0.03}
	for _, tc := range []struct {
		name       string
		checksums  bool
		cachePages int
		faults     *faultsim.Policy
	}{
		{"plain", false, 0, nil},
		{"verified", true, 0, nil},
		{"cached", false, 5, nil},
		{"cached+verified", true, 5, nil},
		{"plain+faults", false, 0, &faults},
		{"verified+faults", true, 0, &faults},
		{"cached+faults", false, 5, &faults},
		{"cached+verified+faults", true, 5, &faults},
	} {
		t.Run(tc.name, func(t *testing.T) {
			datas := [][]byte{pattern(7*4096+123, 0x31), pattern(4096, 0x32), pattern(17, 0x33)}
			build := func() (*Manager, []Handle) {
				m, err := New(1<<20, 4096)
				if err != nil {
					t.Fatal(err)
				}
				var hs []Handle
				for _, d := range datas {
					h, err := m.Allocate(d)
					if err != nil {
						t.Fatal(err)
					}
					hs = append(hs, h)
				}
				if tc.checksums {
					if err := m.EnableChecksums(); err != nil {
						t.Fatal(err)
					}
				}
				m.EnableCache(tc.cachePages)
				if tc.faults != nil {
					m.SetFaults(faultsim.New(*tc.faults))
				}
				m.ResetStats()
				return m, hs
			}
			ma, hs := build()
			mb, _ := build()
			rng := rand.New(rand.NewSource(20260929))
			for i := 0; i < 2000; i++ {
				fi := rng.Intn(len(datas))
				size := len(datas[fi])
				off := rng.Intn(size + 1)
				n := rng.Intn(size - off + 1)
				switch rng.Intn(8) {
				case 0: // whole pages, as extraction reads them
					off = off / 4096 * 4096
					n = min((n+4095)/4096*4096, size-off)
				case 1: // past the end
					n = size - off + 1 + rng.Intn(3)
				}
				want, errA := ma.ReadAt(hs[fi], uint64(off), uint64(n))
				got := make([]byte, n)
				errB := mb.ReadAtInto(hs[fi], uint64(off), got)
				if (errA == nil) != (errB == nil) || (errA != nil && errA.Error() != errB.Error()) {
					t.Fatalf("op %d field %d [%d,+%d): ReadAt error %v, ReadAtInto error %v", i, fi, off, n, errA, errB)
				}
				if errA == nil && !bytes.Equal(got, want) {
					t.Fatalf("op %d field %d [%d,+%d): bytes differ", i, fi, off, n)
				}
				// Without faults, or with every page verified, a read
				// that succeeds returns what was stored.
				if errA == nil && (tc.faults == nil || tc.checksums) && !bytes.Equal(got, datas[fi][off:off+n]) {
					t.Fatalf("op %d field %d [%d,+%d): not the stored bytes", i, fi, off, n)
				}
				if sa, sb := ma.Stats(), mb.Stats(); sa != sb {
					t.Fatalf("op %d: stats diverged:\nReadAt     %+v\nReadAtInto %+v", i, sa, sb)
				}
			}
			if st := ma.Stats(); tc.faults != nil && st.FaultsInjected == 0 {
				t.Error("the faulted configuration injected nothing")
			}
		})
	}
}
