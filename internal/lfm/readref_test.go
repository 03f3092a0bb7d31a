package lfm

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"

	"qbism/internal/faultsim"
)

// The reference read path: the three hand-kept copies of the page logic
// the manager read through before its one page loop — readRange, which
// drew every fault of an uncached read before transferring anything,
// readVerified and readCached — kept under ref names as the oracle
// TestReadMatchesReference holds the loop to. Every page is verified, so
// the uncached reference is readVerified's whole-range transfer. Both
// references model the store's re-read: a page that fails its checksum
// is transferred once more after one more fault decision, and only a
// second mismatch fails the read.

// refRead is the reference ReadAt (whole: Read): the range check, the
// reference read, and its cost on the device meter. It also returns the
// cost, as the reference's bill, and the first logical page the read
// re-read (-1: none).
func (m *Manager) refRead(h Handle, whole bool, off, n uint64) ([]byte, Stats, int, error) {
	reread := -1
	f, err := m.field(h)
	if err != nil {
		return nil, Stats{}, reread, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if whole {
		n = f.size
	}
	if off > f.size || n > f.size-off {
		return nil, Stats{}, reread, fmt.Errorf("%w: [%d,%d) of %d-byte field", ErrOutOfRange, off, off+n, f.size)
	}
	out := make([]byte, n)
	var cost Stats
	err = m.refReadRange(&cost, &reread, h, f, off, out)
	m.stats.Add(cost)
	if err != nil {
		return nil, cost, reread, err
	}
	return out, cost, reread, nil
}

// refBitFlip records one injected single-bit corruption: logical page j of
// the field, byte position within the page, and the bit mask.
type refBitFlip struct {
	page uint64
	pos  int
	mask byte
}

// refReadRange fills dst with [off, off+len(dst)) of a field, dispatching
// to the cached or uncached verified path, counts in cost what the read
// did and leaves in *reread the first page it re-read, if any. Callers
// must hold m.mu.
func (m *Manager) refReadRange(cost *Stats, reread *int, h Handle, f field, off uint64, dst []byte) error {
	n := uint64(len(dst))
	if n == 0 {
		cost.Reads++
		return nil
	}
	if m.cache != nil {
		return m.refReadCached(cost, reread, h, f, off, dst)
	}
	j0, j1 := off/m.pageSize, (off+n-1)/m.pageSize

	// Fault decisions, one per page touched. ReadErr aborts before any
	// transfer; PageCorrupt flips one bit in the transferred data (the
	// device itself stays intact — a transient bus/DMA error).
	var flips []refBitFlip
	if m.faults != nil {
		for j := j0; j <= j1; j++ {
			switch m.faults.ReadFault() {
			case faultsim.ReadErr:
				cost.FaultsInjected++
				return fmt.Errorf("lfm: page %d: %w", (f.off+j*m.pageSize)/m.pageSize, ErrReadFault)
			case faultsim.PageCorrupt:
				cost.FaultsInjected++
				flips = append(flips, refBitFlip{
					page: j,
					pos:  m.faults.Intn(int(m.pageSize)),
					mask: 1 << m.faults.Intn(8),
				})
			}
		}
	}

	return m.refReadVerified(cost, reread, h, f, off, dst, j0, j1, flips)
}

// refReread is the reference re-read of logical page j, whose first
// transfer failed its checksum: one more fault decision, one more
// transfer into page, and the checksum again. It reports whether the
// page now matches.
func (m *Manager) refReread(cost *Stats, f field, j uint64, page []byte) (bool, error) {
	cost.ChecksumFailures++
	var flip refBitFlip // mask 0: no corruption drawn
	switch m.faults.ReadFault() {
	case faultsim.ReadErr:
		cost.FaultsInjected++
		return false, fmt.Errorf("lfm: page %d: %w", (f.off+j*m.pageSize)/m.pageSize, ErrReadFault)
	case faultsim.PageCorrupt:
		cost.FaultsInjected++
		flip = refBitFlip{page: j, pos: m.faults.Intn(int(m.pageSize)), mask: 1 << m.faults.Intn(8)}
	}
	m.devRead(f.off+j*m.pageSize, page)
	cost.PageReads++
	if flip.mask != 0 && flip.pos < len(page) {
		page[flip.pos] ^= flip.mask
	}
	return int(j) < len(f.sums) && crc32.ChecksumIEEE(page) == f.sums[j], nil
}

// refReadVerified transfers the full pages the range touches, applies any
// injected in-transfer corruption, verifies each page against the
// field's checksum table, and leaves the requested range in dst. A
// request for whole pages — every VOLUME extraction and every whole-field
// read — is transferred into dst and verified there; only a request that
// starts or ends inside a page goes through a buffer of its own. It
// counts the pages the range spans — verification inspects only pages
// the read already paid for — and the re-read of the first page that
// fails its checksum, which it draws after every page's first decision.
// Callers must hold m.mu.
func (m *Manager) refReadVerified(cost *Stats, reread *int, h Handle, f field, off uint64, dst []byte, j0, j1 uint64, flips []refBitFlip) error {
	n := uint64(len(dst))
	base := j0 * m.pageSize
	end := (j1 + 1) * m.pageSize
	if end > f.size {
		end = f.size
	}
	wholePages := base == off && end == off+n
	buf := dst
	if !wholePages {
		buf = make([]byte, end-base)
	}
	m.devRead(f.off+base, buf)
	for _, fl := range flips {
		pos := fl.page*m.pageSize + uint64(fl.pos) - base
		if pos < uint64(len(buf)) {
			buf[pos] ^= fl.mask
		}
	}
	sums := f.sums
	for j := j0; j <= j1; j++ {
		lo := j*m.pageSize - base
		hi := lo + m.pageSize
		if hi > uint64(len(buf)) {
			hi = uint64(len(buf))
		}
		if int(j) < len(sums) && crc32.ChecksumIEEE(buf[lo:hi]) == sums[j] {
			continue
		}
		if *reread < 0 {
			*reread = int(j)
		}
		ok, err := m.refReread(cost, f, j, buf[lo:hi])
		if err != nil {
			cost.PageReads += m.pagesSpanned(f.off+off, n)
			return err
		}
		if !ok {
			cost.ChecksumFailures++
			cost.Reads++
			cost.PageReads += m.pagesSpanned(f.off+off, n)
			return fmt.Errorf("lfm: field %d page %d: %w", h, j, ErrChecksum)
		}
	}
	if !wholePages {
		copy(dst, buf[off-base:])
	}
	cost.Reads++
	cost.BytesRead += n
	cost.PageReads += m.pagesSpanned(f.off+off, n)
	return nil
}

// refReadCached serves a read page by page through the CLOCK cache. Hits
// copy straight out of the cache with no device traffic, no fault
// decision (nothing crossed the bus), and no checksum work (the page
// was verified when it was filled). Misses transfer the whole page from
// the device into the cache's spare frame, draw one fault decision,
// verify against the field's checksum table, and only then insert the
// page — a fill that fails leaves the cache, and the page it would have
// evicted, exactly as they were. A miss that fails its checksum is
// re-read once into the same frame. PageReads therefore counts device
// transfers only — exactly what the paper's I/O column would be with a
// buffer pool in front of the LFM. Callers must hold m.mu.
func (m *Manager) refReadCached(cost *Stats, reread *int, h Handle, f field, off uint64, dst []byte) error {
	n := uint64(len(dst))
	j0, j1 := off/m.pageSize, (off+n-1)/m.pageSize
	sums := f.sums
	for j := j0; j <= j1; j++ {
		pageLo := j * m.pageSize
		pageHi := pageLo + m.pageSize
		if pageHi > f.size {
			pageHi = f.size
		}
		key := pageKey{h: h, page: j}
		page := m.cache.get(key)
		if page == nil {
			cost.CacheMisses++
			var flip refBitFlip // mask 0: no corruption drawn
			switch m.faults.ReadFault() {
			case faultsim.ReadErr:
				cost.FaultsInjected++
				return fmt.Errorf("lfm: page %d: %w", (f.off+pageLo)/m.pageSize, ErrReadFault)
			case faultsim.PageCorrupt:
				cost.FaultsInjected++
				flip = refBitFlip{page: j, pos: m.faults.Intn(int(m.pageSize)), mask: 1 << m.faults.Intn(8)}
			}
			page = m.cache.spareFrame(m.pageSize)[:pageHi-pageLo]
			m.devRead(f.off+pageLo, page)
			if flip.mask != 0 && flip.pos < len(page) {
				page[flip.pos] ^= flip.mask
			}
			cost.PageReads++
			if int(j) >= len(sums) || crc32.ChecksumIEEE(page) != sums[j] {
				if *reread < 0 {
					*reread = int(j)
				}
				ok, err := m.refReread(cost, f, j, page)
				if err != nil {
					return err
				}
				if !ok {
					cost.ChecksumFailures++
					cost.Reads++
					return fmt.Errorf("lfm: field %d page %d: %w", h, j, ErrChecksum)
				}
			}
			if m.cache.put(key, page) {
				cost.CacheEvictions++
			}
		} else {
			cost.CacheHits++
		}
		// Copy the requested slice of this page into the output.
		lo := pageLo
		if off > lo {
			lo = off
		}
		hi := pageHi
		if off+n < hi {
			hi = off + n
		}
		copy(dst[lo-off:hi-off], page[lo-pageLo:hi-pageLo])
	}
	cost.Reads++
	cost.BytesRead += n
	return nil
}

// TestReadMatchesReference drives two identically built managers with
// the same seeded sequence of reads — aligned, unaligned, whole-field
// and past the end — one through the page loop (Read, ReadAt, IO.Read,
// IO.ReadInto and IO.ReadAtInto by turns) and one through the reference
// paths, in every read-path configuration. After every read the bytes,
// the error text, every Stats field and the number of fault decisions
// drawn must match, and at the end so must the next draws of both
// injectors: the fault streams ran in lockstep. Every page is verified;
// in the +verified cases a page of the first field rots at rest on both
// devices halfway through, and every read that touches it must fail its
// checksum.
//
// The one allowed difference is the uncached read that fails or re-reads.
// The loop stops at the page that failed. A ReadErr on page k bills
// k − first pages (the reference billed 0, or, when the ReadErr struck
// the re-read of the range's last page, the same). A checksum failure
// on page k bills k − first + 2, its re-read included (the reference
// billed the whole range and the re-read). The reference drew every
// page's first fault before it transferred any, and its re-read's after
// them, so a re-read before the range's last page, with faults on,
// leaves the two streams one decision apart from there on — and a
// ReadErr among the later pages may have been the reference's error.
// There the test checks the loop's side alone and reseeds both
// injectors alike.
func TestReadMatchesReference(t *testing.T) {
	faults := faultsim.Policy{Seed: 99, ReadErrProb: 0.03, PageCorruptProb: 0.03}
	for _, tc := range []struct {
		name       string
		rot        bool
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
				m.EnableCache(tc.cachePages)
				m.ResetStats()
				return m, hs
			}
			mNew, hs := build()
			mRef, _ := build()
			var inNew, inRef *faultsim.Injector // nil: no faults
			seed := func(s uint64) {
				p := *tc.faults
				p.Seed = s
				inNew, inRef = faultsim.New(p), faultsim.New(p)
				mNew.SetFaults(inNew)
				mRef.SetFaults(inRef)
			}
			if tc.faults != nil {
				seed(tc.faults.Seed)
			}
			io := IO{M: mNew}
			buf := make([]byte, len(datas[0])+8)
			rng := rand.New(rand.NewSource(20260929))
			var readErrs, sumErrs, reseeds, rotErrs, cured int
			for i := 0; i < 2000; i++ {
				if tc.rot && i == 1000 {
					for _, m := range []*Manager{mNew, mRef} {
						if err := m.Corrupt(hs[0], 3*4096+5, 0x10); err != nil {
							t.Fatal(err)
						}
					}
				}
				fi := rng.Intn(len(datas))
				h, size := hs[fi], len(datas[fi])
				off := rng.Intn(size + 1)
				n := rng.Intn(size - off + 1)
				whole := false
				switch rng.Intn(8) {
				case 0: // whole pages, as extraction reads them
					off = off / 4096 * 4096
					n = min((n+4095)/4096*4096, size-off)
				case 1: // past the end
					n = size - off + 1 + rng.Intn(3)
				case 2: // the whole field
					off, n, whole = 0, size, true
				}
				entry := rng.Intn(3)

				before, opsNew, opsRef := mNew.Stats(), inNew.Ops(), inRef.Ops()
				io.Reset()
				var got []byte
				var errNew error
				switch {
				case whole && entry == 0:
					got, errNew = mNew.Read(h)
				case whole && entry == 1:
					got, errNew = io.Read(h)
				case whole:
					got, errNew = io.ReadInto(h, buf[:0])
				case entry == 0:
					got, errNew = mNew.ReadAt(h, uint64(off), uint64(n))
				default:
					got = buf[:n]
					errNew = io.ReadAtInto(h, uint64(off), got)
				}
				cost := mNew.Stats().Sub(before)
				if entry != 0 && io.Stats != cost {
					t.Fatalf("op %d: IO billed %+v, the device counted %+v", i, io.Stats, cost)
				}
				want, refCost, reread, errRef := mRef.refRead(h, whole, uint64(off), uint64(n))
				drewNew, drewRef := inNew.Ops()-opsNew, inRef.Ops()-opsRef
				where := fmt.Sprintf("op %d field %d [%d,+%d)", i, fi, off, n)
				first, last := uint64(off)/4096, (uint64(off)+uint64(max(n, 1))-1)/4096

				if tc.rot && i >= 1000 && fi == 0 && errors.Is(errNew, ErrChecksum) {
					rotErrs++
				}
				if errNew == nil && cost.ChecksumFailures > 0 {
					cured++
				}
				if tc.cachePages == 0 && tc.faults != nil && cost.ChecksumFailures > 0 && reread != int(last) {
					// The loop re-read a page before the range's last (the
					// reference re-read that page too, or stopped at a
					// ReadErr it drew for a later one), so its later draws
					// ran one decision ahead of the reference's. Each page
					// through the one it stopped at was transferred once,
					// and each that failed its checksum once more.
					switch {
					case errNew == nil:
						if cost.ChecksumFailures != 1 || cost.PageReads != drewNew || !bytes.Equal(got, datas[fi][off:off+n]) {
							t.Fatalf("%s: cured read cost %+v after %d draws", where, cost, drewNew)
						}
					case errors.Is(errNew, ErrChecksum):
						k := first + cost.PageReads - cost.ChecksumFailures
						if wantErr := fmt.Sprintf("lfm: field %d page %d: %v", h, k, ErrChecksum); errNew.Error() != wantErr {
							t.Fatalf("%s: error %q, want %q", where, errNew, wantErr)
						}
						if cost.PageReads != drewNew || cost.Reads != 1 || cost.ChecksumFailures < 2 || cost.BytesRead != 0 {
							t.Fatalf("%s: failed read cost %+v after %d draws", where, cost, drewNew)
						}
						sumErrs++
					case errors.Is(errNew, ErrReadFault):
						if cost.PageReads != drewNew-1 {
							t.Fatalf("%s: ReadErr billed %d pages after %d draws", where, cost.PageReads, drewNew)
						}
						readErrs++
					default:
						t.Fatalf("%s: error %v", where, errNew)
					}
					if reread < 0 && !errors.Is(errRef, ErrReadFault) {
						t.Fatalf("%s: the reference re-read nothing and returned %v", where, errRef)
					}
					reseeds++
					seed(rng.Uint64())
					continue
				}
				if tc.cachePages == 0 && errors.Is(errNew, ErrChecksum) {
					// The loop transferred each page through the failing
					// one (drawing one fault a page, with faults on), that
					// page once more, and stopped. Without a fault drawn,
					// only the rot fails.
					sumErrs++
					k := first + cost.PageReads - 2
					if wantErr := fmt.Sprintf("lfm: field %d page %d: %v", h, k, ErrChecksum); errNew.Error() != wantErr {
						t.Fatalf("%s: error %q, want %q", where, errNew, wantErr)
					}
					if (tc.faults != nil && cost.PageReads != drewNew) || cost.Reads != 1 || cost.ChecksumFailures != 2 || cost.BytesRead != 0 ||
						(cost.FaultsInjected == 0 && !tc.rot) || cost.FaultsInjected > refCost.FaultsInjected {
						t.Fatalf("%s: failed read cost %+v after %d draws (reference %+v)", where, cost, drewNew, refCost)
					}
					// Failing on the range's last page, or with no faults
					// to draw, both drew the same faults; only the bill
					// differs.
					if refCost.PageReads != last-first+2 {
						t.Fatalf("%s: the reference billed %d pages", where, refCost.PageReads)
					}
					refCost.PageReads = cost.PageReads
				}
				if tc.cachePages == 0 && errors.Is(errNew, ErrReadFault) {
					// A ReadErr on page k: the loop transferred the k − first
					// pages before it; the reference transferred none — unless
					// the ReadErr struck the re-read of the last page, when
					// both transferred the whole range.
					readErrs++
					refPages := uint64(0)
					if cost.ChecksumFailures > 0 {
						refPages = last - first + 1
					}
					if refCost.PageReads != refPages || cost.PageReads != drewNew-1 {
						t.Fatalf("%s: ReadErr billed %d pages after %d draws, the reference %d",
							where, cost.PageReads, drewNew, refCost.PageReads)
					}
					refCost.PageReads = cost.PageReads
				}
				if (errNew == nil) != (errRef == nil) || (errNew != nil && errNew.Error() != errRef.Error()) {
					t.Fatalf("%s: loop error %v, reference error %v", where, errNew, errRef)
				}
				if errNew == nil && !bytes.Equal(got, want) {
					t.Fatalf("%s: bytes differ", where)
				}
				// Every page is verified: a read that succeeds returns
				// what was stored.
				if errNew == nil && !bytes.Equal(got, datas[fi][off:off+n]) {
					t.Fatalf("%s: not the stored bytes", where)
				}
				if cost != refCost {
					t.Fatalf("%s: stats diverged:\nloop      %+v\nreference %+v", where, cost, refCost)
				}
				if drewNew != drewRef {
					t.Fatalf("%s: the loop drew %d faults, the reference %d", where, drewNew, drewRef)
				}
			}
			t.Logf("%d flips cured by the re-read; %d reads of the rotten field failed; uncached: %d ReadErrs, %d checksum failures, %d re-reads before the range's last page",
				cured, rotErrs, readErrs, sumErrs, reseeds)
			if tc.rot && rotErrs == 0 {
				t.Error("no read of the rotten field failed: the rot went unchecked")
			}
			if tc.faults == nil {
				return
			}
			if a, b := inNew.ReadFault(), inRef.ReadFault(); a != b {
				t.Errorf("next fault draws differ: %v, the reference %v", a, b)
			}
			if a, b := inNew.Intn(1<<30), inRef.Intn(1<<30); a != b {
				t.Errorf("next stream draws differ: %d, the reference %d", a, b)
			}
			if mNew.Stats().FaultsInjected == 0 {
				t.Error("the faulted configuration injected nothing")
			}
			if cured == 0 {
				t.Error("no transfer flip was cured by the re-read")
			}
			// The documented difference is exercised where it applies.
			if tc.cachePages == 0 && readErrs == 0 {
				t.Error("no uncached ReadErr drawn: that bill went unchecked")
			}
			if tc.cachePages == 0 && reseeds == 0 {
				t.Error("no uncached re-read before a range's last page: that bill went unchecked")
			}
		})
	}
}
