package lfm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"qbism/internal/faultsim"
	"qbism/internal/region"
)

// randomRuns returns a sorted, disjoint run list inside a field of size
// bytes, drawn to reach every shape the gathering read distinguishes:
// runs that start or end inside a page, on a page boundary or one byte
// either side of it, 1-byte runs, runs spanning many pages, runs on the
// field's short last page, adjacent runs and gaps of several pages.
func randomRuns(rng *rand.Rand, size uint64) []region.Run {
	var runs []region.Run
	pos := uint64(rng.Intn(3 * 4096))
	for pos < size && len(runs) < 1+rng.Intn(12) {
		var n uint64
		switch rng.Intn(5) {
		case 0:
			n = 1
		case 1:
			n = uint64(1 + rng.Intn(300))
		case 2:
			n = uint64(1 + rng.Intn(4096))
		case 3:
			n = uint64(4096 + rng.Intn(5*4096))
		default: // to the end of a page, or a byte either side of it
			n = max(1, 4096-pos%4096+uint64(rng.Intn(3))-1)
		}
		hi := min(pos+n, size) - 1
		runs = append(runs, region.Run{Lo: pos, Hi: hi})
		switch rng.Intn(5) {
		case 0: // adjacent
			pos = hi + 1
		case 1: // several pages on
			pos = hi + 1 + uint64(rng.Intn(4*4096))
		case 2: // to the next page boundary, or a byte either side of it
			pos = max(hi+1, (hi/4096+1)*4096+uint64(rng.Intn(3))-1)
		default:
			pos = hi + 1 + uint64(1+rng.Intn(600))
		}
	}
	if rng.Intn(6) == 0 { // a run on the short last page
		lastPage := size - (size-1)/4096*4096
		if lo := size - 1 - uint64(rng.Intn(int(lastPage))); len(runs) == 0 || lo > runs[len(runs)-1].Hi {
			runs = append(runs, region.Run{Lo: lo, Hi: size - 1})
		}
	}
	return runs
}

// pageSpan is the read a gather of runs makes: the whole pages from the
// first run's through the last's, clamped to the field.
func pageSpan(runs []region.Run, size uint64) (off, n uint64) {
	if len(runs) == 0 {
		return 0, 0
	}
	off = runs[0].Lo / 4096 * 4096
	return off, min((runs[len(runs)-1].Hi/4096+1)*4096, size) - off
}

// TestReadRunsMatchesReadAt is the gathering read's differential test.
// Two identically built managers take the same seeded sequence of run
// lists: one gathers each through ReadRunsInto, the other reads the
// runs' page span with ReadAtInto and copies the runs out. Every read
// must leave the same bytes, bill the same Stats field by field, draw
// the same faults and fail with the same typed error, with the cache off
// and on, and ReadErr and PageCorrupt faults. Both re-read a page that
// fails its checksum, so a flip in transfer is cured alike on both
// sides, and with faults on some are. In the +verified cases a page of
// the field is Corrupted on both devices partway through, and every read
// that touches it must fail its checksum.
//
// Every page is verified, so a read that succeeds returns the stored
// bytes in every case.
func TestReadRunsMatchesReadAt(t *testing.T) {
	const size = 11*4096 + 777 // a short last page
	data := pattern(size, 0x5c)
	faults := faultsim.Policy{Seed: 45, ReadErrProb: 0.01, PageCorruptProb: 0.02}
	for _, tc := range []struct {
		name       string
		rot        bool
		cachePages int
		faults     *faultsim.Policy
	}{
		{"plain", false, 0, nil},
		{"verified", true, 0, nil},
		{"cached", false, 4, nil},
		{"cached+verified", true, 4, nil},
		{"faults", false, 0, &faults},
		{"verified+faults", true, 0, &faults},
		{"cached+verified+faults", true, 4, &faults},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() (*Manager, Handle, *faultsim.Injector) {
				m, err := New(1<<20, 4096)
				if err != nil {
					t.Fatal(err)
				}
				h, err := m.Allocate(data)
				if err != nil {
					t.Fatal(err)
				}
				m.EnableCache(tc.cachePages)
				var in *faultsim.Injector
				if tc.faults != nil {
					in = faultsim.New(*tc.faults)
					m.SetFaults(in)
				}
				return m, h, in
			}
			mG, h, inG := build()
			mR, _, inR := build()
			gather, ref := IO{M: mG}, IO{M: mR}
			rng := rand.New(rand.NewSource(20261017))
			span := make([]byte, size)
			onDevice := bytes.Clone(data)
			errs := map[bool]int{}
			cured := 0 // reads a re-read saved from a transfer flip
			for i := 0; i < 1500; i++ {
				if tc.rot && i == 700 {
					for _, m := range []*Manager{mG, mR} {
						if err := m.Corrupt(h, 5*4096+99, 0x10); err != nil {
							t.Fatal(err)
						}
					}
					onDevice[5*4096+99] ^= 0x10
				}
				runs := randomRuns(rng, size)
				var want []byte
				for _, r := range runs {
					want = append(want, onDevice[r.Lo:r.Hi+1]...)
				}
				off, n := pageSpan(runs, size)
				gather.Reset()
				ref.Reset()
				opsG, opsR := inG.Ops(), inR.Ops()
				got := make([]byte, len(want))
				errG := gather.ReadRunsInto(h, runs, got)
				errR := ref.ReadAtInto(h, off, span[:n])
				where := fmt.Sprintf("op %d, %d runs over [%d,+%d)", i, len(runs), off, n)
				if (errG == nil) != (errR == nil) || (errG != nil && errG.Error() != errR.Error()) {
					t.Fatalf("%s: gather error %v, ReadAt error %v", where, errG, errR)
				}
				for _, target := range []error{ErrReadFault, ErrChecksum} {
					if errors.Is(errG, target) != errors.Is(errR, target) {
						t.Fatalf("%s: gather error %v and ReadAt error %v are not the same type", where, errG, errR)
					}
				}
				if gather.Stats != ref.Stats {
					t.Fatalf("%s: bills differ:\ngather %+v\nReadAt %+v", where, gather.Stats, ref.Stats)
				}
				if a, b := inG.Ops()-opsG, inR.Ops()-opsR; a != b {
					t.Fatalf("%s: gather drew %d faults, ReadAt %d", where, a, b)
				}
				errs[errG != nil]++
				if errG != nil {
					continue
				}
				if gather.ChecksumFailures > 0 {
					cured++
				}
				copied := got[:0:0]
				for _, r := range runs {
					copied = append(copied, span[r.Lo-off:r.Hi-off+1]...)
				}
				if !bytes.Equal(got, copied) {
					t.Fatalf("%s: gathered bytes differ from ReadAt's", where)
				}
				// A read that succeeds returns what the device holds: a
				// read of the rotten page fails.
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: not the stored bytes", where)
				}
			}
			if a, b := mG.Stats(), mR.Stats(); a != b {
				t.Errorf("meters differ:\ngather %+v\nReadAt %+v", a, b)
			}
			if (tc.faults != nil || tc.rot) && errs[true] == 0 {
				t.Error("no read failed: the error paths went unchecked")
			}
			if tc.faults != nil && cured == 0 {
				t.Error("no read was cured by a re-read: the re-read went unchecked")
			}
			t.Logf("%d reads succeeded (%d after a re-read cured a flip), %d failed", errs[false], cured, errs[true])
		})
	}
}

// TestReadRunsRefusesBadRuns: a run past the field's end, runs out of
// order or overlapping, an empty run and a buffer of the wrong length
// are refused before any page is read, and bill nothing.
func TestReadRunsRefusesBadRuns(t *testing.T) {
	m, err := New(1<<20, 4096)
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.Allocate(pattern(3*4096, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		runs []region.Run
		dst  int
	}{
		{"past-end", []region.Run{{Lo: 3*4096 - 1, Hi: 3 * 4096}}, 2},
		{"out-of-order", []region.Run{{Lo: 10, Hi: 19}, {Lo: 0, Hi: 4}}, 15},
		{"overlapping", []region.Run{{Lo: 0, Hi: 9}, {Lo: 9, Hi: 12}}, 14},
		{"empty-run", []region.Run{{Lo: 9, Hi: 8}}, 0},
		{"short-buffer", []region.Run{{Lo: 0, Hi: 9}}, 9},
	} {
		io := IO{M: m}
		if err := io.ReadRunsInto(h, tc.runs, make([]byte, tc.dst)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if io.Stats != (Stats{}) {
			t.Errorf("%s: refused read billed %+v", tc.name, io.Stats)
		}
	}
	if err := (&IO{M: m}).ReadRunsInto(h+1, nil, nil); !errors.Is(err, ErrUnknownHandle) {
		t.Errorf("unknown field: %v", err)
	}
	if s := m.Stats(); s != (Stats{BytesWritten: 3 * 4096, Writes: 1, PageWrites: 3}) {
		t.Errorf("refused reads moved the meter: %+v", s)
	}
}

// TestConcurrentGathersBillExactly races gathering reads and whole-field
// reads over a CLOCK cache far smaller than the fields, every page
// verified: the manager lock is held per page transfer, so pages of different
// reads interleave and every read's frames are recycled under the
// others. Every read must still return the stored bytes, and the bills
// must sum to what the device meter counted. `make chaos` runs it under
// the race detector.
func TestConcurrentGathersBillExactly(t *testing.T) {
	m, err := New(1<<22, 4096)
	if err != nil {
		t.Fatal(err)
	}
	datas := [][]byte{pattern(9*4096+500, 0x21), pattern(6*4096, 0x42)}
	var hs []Handle
	for _, d := range datas {
		h, err := m.Allocate(d)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	m.EnableCache(3)
	before := m.Stats()

	const workers, rounds = 6, 60
	bills := make([]IO, workers)
	var wg sync.WaitGroup
	for w := range bills {
		bills[w] = IO{M: m, PerHandle: w%2 == 0}
		wg.Add(1)
		go func(w int, io *IO) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < rounds; i++ {
				fi := rng.Intn(len(datas))
				data := datas[fi]
				if w%3 == 2 {
					got, err := io.Read(hs[fi])
					if err != nil || !bytes.Equal(got, data) {
						t.Errorf("worker %d: whole read of field %d: %v", w, fi, err)
						return
					}
					continue
				}
				runs := randomRuns(rng, uint64(len(data)))
				var want []byte
				for _, r := range runs {
					want = append(want, data[r.Lo:r.Hi+1]...)
				}
				got := make([]byte, len(want))
				if err := io.ReadRunsInto(hs[fi], runs, got); err != nil || !bytes.Equal(got, want) {
					t.Errorf("worker %d: gather of %d runs from field %d: %v", w, len(runs), fi, err)
					return
				}
			}
		}(w, &bills[w])
	}
	wg.Wait()
	var sum Stats
	for w := range bills {
		if bills[w].Reads != rounds {
			t.Errorf("worker %d billed %d reads, made %d", w, bills[w].Reads, rounds)
		}
		sum.Add(bills[w].Stats)
	}
	if device := m.Stats().Sub(before); sum != device {
		t.Errorf("bills sum to %+v, the device counted %+v", sum, device)
	}
	if sum.CacheEvictions == 0 {
		t.Error("the cache never evicted: frames were not recycled under the readers")
	}
}
