package lfm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"qbism/internal/faultsim"
	"qbism/internal/region"
	"qbism/internal/sfc"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(100, 3000); err == nil {
		t.Error("non-power-of-two page size accepted")
	}
	if _, err := New(10, 4096); err == nil {
		t.Error("capacity < page accepted")
	}
	m, err := New(10*4096+1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.PageSize() != DefaultPageSize {
		t.Errorf("page size = %d", m.PageSize())
	}
	// A byte past 10 pages rounds up to 11 whole pages, all free.
	if m.Capacity() != 11*4096 || m.FreePages() != 11 {
		t.Errorf("capacity = %d, %d pages free; want %d, 11", m.Capacity(), m.FreePages(), 11*4096)
	}
}

func TestAllocateReadFree(t *testing.T) {
	m, _ := New(1<<20, 4096)
	data := []byte("hello long field")
	h, err := m.Allocate(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(h)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Read = %q, %v", got, err)
	}
	if n, _ := m.Size(h); n != uint64(len(data)) {
		t.Errorf("Size = %d", n)
	}
	for _, bad := range []Handle{0, h + 1} {
		if _, err := m.Read(bad); !errors.Is(err, ErrUnknownHandle) {
			t.Errorf("read of handle %d: %v", bad, err)
		}
	}
	if m.FreePages() != m.Capacity()/4096-1 {
		t.Errorf("%d pages free of %d after a 1-page field", m.FreePages(), m.Capacity()/4096)
	}
}

func TestReadAt(t *testing.T) {
	m, _ := New(1<<20, 4096)
	data := make([]byte, 10000)
	for i := range data {
		data[i] = byte(i % 251)
	}
	h, _ := m.Allocate(data)
	got, err := m.ReadAt(h, 5000, 100)
	if err != nil || !bytes.Equal(got, data[5000:5100]) {
		t.Fatalf("ReadAt: %v", err)
	}
	if _, err := m.ReadAt(h, 9990, 20); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("out-of-range read: %v", err)
	}
	if _, err := m.ReadAt(Handle(999), 0, 1); !errors.Is(err, ErrUnknownHandle) {
		t.Errorf("unknown handle: %v", err)
	}
	// Zero-length read at field end is legal and touches no pages.
	before := m.Stats()
	if _, err := m.ReadAt(h, 10000, 0); err != nil {
		t.Errorf("zero read at end: %v", err)
	}
	if d := m.Stats().Sub(before); d.PageReads != 0 {
		t.Errorf("zero read cost %d pages", d.PageReads)
	}
}

func TestPageAccounting(t *testing.T) {
	m, _ := New(1<<22, 4096)
	data := make([]byte, 3*4096)
	h, _ := m.Allocate(data)
	if w := m.Stats().PageWrites; w != 3 {
		t.Errorf("allocate wrote %d pages, want 3", w)
	}
	m.ResetStats()
	// A 1-byte read costs 1 page.
	if _, err := m.ReadAt(h, 0, 1); err != nil {
		t.Fatal(err)
	}
	if r := m.Stats().PageReads; r != 1 {
		t.Errorf("1-byte read cost %d pages", r)
	}
	m.ResetStats()
	// A read straddling a page boundary costs 2 pages.
	if _, err := m.ReadAt(h, 4090, 10); err != nil {
		t.Fatal(err)
	}
	if r := m.Stats().PageReads; r != 2 {
		t.Errorf("straddling read cost %d pages, want 2", r)
	}
	m.ResetStats()
	// Full read costs 3 pages; no buffering means a repeat costs again.
	m.Read(h)
	m.Read(h)
	if r := m.Stats().PageReads; r != 6 {
		t.Errorf("two full reads cost %d pages, want 6", r)
	}
	s := m.Stats()
	if s.BytesRead != 2*3*4096 || s.Reads != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{PageReads: 10, PageWrites: 5, BytesRead: 100, BytesWritten: 50, Reads: 3, Writes: 2,
		FaultsInjected: 7, ChecksumFailures: 4}
	b := Stats{PageReads: 4, PageWrites: 1, BytesRead: 40, BytesWritten: 10, Reads: 1, Writes: 1,
		FaultsInjected: 2, ChecksumFailures: 1}
	d := a.Sub(b)
	if d.PageReads != 6 || d.PageWrites != 4 || d.BytesRead != 60 || d.BytesWritten != 40 || d.Reads != 2 || d.Writes != 1 {
		t.Errorf("Sub = %+v", d)
	}
	if d.FaultsInjected != 5 || d.ChecksumFailures != 3 {
		t.Errorf("fault counters = %+v", d)
	}
}

func TestOutOfSpace(t *testing.T) {
	m, _ := New(4*4096, 4096)
	if _, err := m.Allocate(make([]byte, 5*4096)); !errors.Is(err, ErrNoSpace) {
		t.Errorf("oversized alloc: %v", err)
	}
	h1, err := m.Allocate(make([]byte, 4*4096))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Allocate([]byte{1}); !errors.Is(err, ErrNoSpace) {
		t.Errorf("alloc on full device: %v", err)
	}
	if got, err := m.Read(h1); err != nil || len(got) != 4*4096 {
		t.Errorf("full-device field read back %d bytes, %v", len(got), err)
	}
}

func TestReadFaultInjection(t *testing.T) {
	m, _ := New(1<<20, 4096)
	data := make([]byte, 2*4096)
	h, _ := m.Allocate(data)
	// Each page touched by a read is one fault decision; op 2 is the
	// second page of the full read below.
	m.SetFaults(faultsim.New(faultsim.Policy{Schedule: []faultsim.Scheduled{
		{Op: 2, Kind: faultsim.ReadErr},
	}}))
	if _, err := m.Read(h); !errors.Is(err, ErrReadFault) {
		t.Errorf("fault not surfaced: %v", err)
	}
	if m.Stats().FaultsInjected != 1 {
		t.Errorf("FaultsInjected = %d", m.Stats().FaultsInjected)
	}
	// Subsequent reads (past the schedule) still work.
	if _, err := m.ReadAt(h, 0, 10); err != nil {
		t.Errorf("good page read failed: %v", err)
	}
	m.SetFaults(nil)
	if _, err := m.Read(h); err != nil {
		t.Errorf("read after clearing faults: %v", err)
	}
}

func TestWriteFaultTyped(t *testing.T) {
	m, _ := New(1<<20, 4096)
	m.SetFaults(faultsim.New(faultsim.Policy{Schedule: []faultsim.Scheduled{
		{Op: 1, Kind: faultsim.WriteErr},
	}}))
	if _, err := m.Allocate(make([]byte, 4096)); !errors.Is(err, ErrWriteFault) {
		t.Fatalf("write fault not surfaced: %v", err)
	}
	// The failed allocation leaves the first unallocated page where it was.
	if m.FreePages() != m.Capacity()/4096 {
		t.Errorf("failed alloc leaked pages: %d free of %d", m.FreePages(), m.Capacity()/4096)
	}
	if m.Stats().FaultsInjected != 1 {
		t.Errorf("FaultsInjected = %d", m.Stats().FaultsInjected)
	}
}

// TestChecksumCatchesBitFlip is the regression test for the integrity
// layer: a single flipped bit in a stored blob (e.g. a REGION long
// field) must fail the read with ErrChecksum, never return silently
// corrupted bytes.
func TestChecksumCatchesBitFlip(t *testing.T) {
	m, _ := New(1<<20, 4096)
	blob := make([]byte, 3*4096+17) // odd tail: last page is short
	for i := range blob {
		blob[i] = byte(i * 31)
	}
	h, err := m.Allocate(blob)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in the middle page, at rest, behind the checksum table.
	if err := m.Corrupt(h, 5000, 0x10); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Read(h); !errors.Is(err, ErrChecksum) {
		t.Errorf("full read: want ErrChecksum, got %v", err)
	}
	if m.Stats().ChecksumFailures == 0 {
		t.Error("ChecksumFailures not counted")
	}
	// A read confined to clean pages still verifies and succeeds.
	got, err := m.ReadAt(h, 0, 100)
	if err != nil || !bytes.Equal(got, blob[:100]) {
		t.Errorf("clean-page read: %q, %v", got[:5], err)
	}
	// And the short tail page verifies too.
	if _, err := m.ReadAt(h, 3*4096, 17); err != nil {
		t.Errorf("tail page read: %v", err)
	}
}

func TestTornWriteDetectedByChecksum(t *testing.T) {
	m, _ := New(1<<20, 4096)
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i)
	}
	// Op 1 is the write's single page chunk: tear it. The write reports
	// success — the torn page is only caught on read.
	m.SetFaults(faultsim.New(faultsim.Policy{Schedule: []faultsim.Scheduled{
		{Op: 1, Kind: faultsim.TornWrite},
	}}))
	h, err := m.Allocate(data)
	if err != nil {
		t.Fatalf("torn write must report success, got %v", err)
	}
	if _, err := m.Read(h); !errors.Is(err, ErrChecksum) {
		t.Errorf("torn page not detected: %v", err)
	}
}

// TestPageCorruptDetectedByChecksum: a page flipped in transfer on both
// its first transfer and its re-read reads as rot — ErrChecksum — and
// is never returned. The device itself is intact, so the next read
// succeeds.
func TestPageCorruptDetectedByChecksum(t *testing.T) {
	m, _ := New(1<<20, 4096)
	data := make([]byte, 2*4096)
	h, _ := m.Allocate(data)
	// In-transfer corruption on the first page of the next read, twice.
	m.SetFaults(faultsim.New(faultsim.Policy{Schedule: []faultsim.Scheduled{
		{Op: 1, Kind: faultsim.PageCorrupt}, {Op: 2, Kind: faultsim.PageCorrupt},
	}}))
	if _, err := m.Read(h); !errors.Is(err, ErrChecksum) {
		t.Errorf("in-transfer corruption not detected: %v", err)
	}
	// The device itself is intact: the re-read succeeds.
	if got, err := m.Read(h); err != nil || !bytes.Equal(got, data) {
		t.Errorf("re-read after transient corruption: %v", err)
	}
}

// TestTransferFlipCuredInPlace: a page flipped in its first transfer
// and not in its second is a flip in transfer, which the store's re-read
// cures: the read returns the stored bytes, and its bill shows the one
// rejected transfer and the one extra page read, on both cache settings.
func TestTransferFlipCuredInPlace(t *testing.T) {
	for _, cachePages := range []int{0, 4} {
		m, _ := New(1<<20, 4096)
		data := pattern(3*4096+17, 0x6b)
		h, _ := m.Allocate(data)
		m.EnableCache(cachePages)
		m.ResetStats()
		// Op 2 is page 1's first transfer; op 3 its re-read.
		in := faultsim.New(faultsim.Policy{Schedule: []faultsim.Scheduled{{Op: 2, Kind: faultsim.PageCorrupt}}})
		m.SetFaults(in)
		io := IO{M: m}
		got, err := io.Read(h)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("cache=%d: read after a transfer flip: %v", cachePages, err)
		}
		if io.ChecksumFailures != 1 || io.PageReads != 5 || io.FaultsInjected != 1 || io.Reads != 1 || in.Ops() != 5 {
			t.Errorf("cache=%d: bill %+v after %d draws; want 1 checksum failure, 5 page reads (4 + 1 re-read), 1 fault, 5 draws",
				cachePages, io.Stats, in.Ops())
		}
	}
}

// TestRotFailsAfterTwoTransfers: a page that rotted at rest fails its
// checksum on the transfer and on the re-read, and the read stops there
// with ErrChecksum after exactly those two transfers of it, on both
// cache settings.
func TestRotFailsAfterTwoTransfers(t *testing.T) {
	for _, cachePages := range []int{0, 4} {
		m, _ := New(1<<20, 4096)
		h, _ := m.Allocate(pattern(4*4096, 0x17))
		m.EnableCache(cachePages)
		if err := m.Corrupt(h, 4096+9, 0x04); err != nil {
			t.Fatal(err)
		}
		m.ResetStats()
		io := IO{M: m}
		_, err := io.Read(h)
		if want := fmt.Sprintf("lfm: field %d page 1: %v", h, ErrChecksum); err == nil || err.Error() != want {
			t.Fatalf("cache=%d: read of a rotten page: %v, want %q", cachePages, err, want)
		}
		// Page 0, then page 1 twice.
		if io.PageReads != 3 || io.ChecksumFailures != 2 || io.Reads != 1 || io.BytesRead != 0 || io.Stats != m.Stats() {
			t.Errorf("cache=%d: bill %+v, device %+v; want 3 page reads, 2 checksum failures, 1 failed read", cachePages, io.Stats, m.Stats())
		}
	}
}

// TestAllocateLaysFieldsEndToEnd: each field starts on the page after
// the last page of the one before it. A 3-page field, a 0-byte field and
// a 1-page field land at pages 0, 3 and 4. A failed write records no
// handle, and the next field takes its place. ErrNoSpace comes back once
// a field would run past the device, and leaves the free pages as they
// were.
func TestAllocateLaysFieldsEndToEnd(t *testing.T) {
	m, err := New(8*4096, 4096)
	if err != nil {
		t.Fatal(err)
	}
	want := map[Handle][]byte{}
	store := func(data []byte, page uint64) {
		t.Helper()
		h, err := m.Allocate(data)
		if err != nil {
			t.Fatal(err)
		}
		if h != Handle(len(want)+1) {
			t.Errorf("handle %d, want %d", h, len(want)+1)
		}
		if f, _ := m.field(h); f.off != page*4096 {
			t.Errorf("field %d at page %d, want %d", h, f.off/4096, page)
		}
		want[h] = data
	}
	store(pattern(3*4096-100, 3), 0)
	store(nil, 3)
	store(pattern(4096, 1), 4)
	if m.FreePages() != 3 || m.Stats().PageWrites != 4 {
		t.Errorf("%d pages free, %d written; want 3, 4", m.FreePages(), m.Stats().PageWrites)
	}

	// The write fails on its second page, after its first reached page 5.
	m.SetFaults(faultsim.New(faultsim.Policy{Schedule: []faultsim.Scheduled{
		{Op: 2, Kind: faultsim.WriteErr},
	}}))
	if _, err := m.Allocate(pattern(2*4096, 5)); !errors.Is(err, ErrWriteFault) {
		t.Fatalf("write fault not surfaced: %v", err)
	}
	m.SetFaults(nil)
	if m.NumFields() != 3 || m.FreePages() != 3 {
		t.Errorf("failed write left %d fields and %d pages free, want 3 and 3", m.NumFields(), m.FreePages())
	}
	store(pattern(2*4096-1, 7), 5)

	if _, err := m.Allocate(pattern(4096+1, 9)); !errors.Is(err, ErrNoSpace) {
		t.Errorf("2-page field with 1 page free: %v, want ErrNoSpace", err)
	}
	store(pattern(4096, 11), 7)
	if _, err := m.Allocate(nil); !errors.Is(err, ErrNoSpace) {
		t.Errorf("0-byte field on a full device: %v, want ErrNoSpace", err)
	}
	if m.FreePages() != 0 {
		t.Errorf("%d pages free on a full device", m.FreePages())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for h, data := range want {
		if got, err := m.Read(h); err != nil || !bytes.Equal(got, data) {
			t.Errorf("field %d read back: %v", h, err)
		}
	}
}

// TestAllocatorInvariantsQuick stores random fields, up to 12 pages and
// down to none, on a 64-page device whose writes fail at random. After
// every step the layout holds its invariants, the free pages and the
// pages each stored field holds — those its bytes span, at least one —
// add up to the device, and every stored field reads back intact.
func TestAllocatorInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, err := New(1<<18, 4096) // 64 pages
		if err != nil {
			return false
		}
		m.SetFaults(faultsim.New(faultsim.Policy{Seed: uint64(seed), WriteErrProb: 0.05}))
		var stored [][]byte // stored[h-1] is field h
		for op := 0; op < 40; op++ {
			data := make([]byte, rng.Intn(12*4096))
			rng.Read(data)
			h, err := m.Allocate(data)
			switch {
			case err == nil && h == Handle(len(stored)+1):
				stored = append(stored, data)
			case errors.Is(err, ErrNoSpace), errors.Is(err, ErrWriteFault):
			default:
				t.Logf("op %d: handle %d, %v", op, h, err)
				return false
			}
			if err := m.CheckInvariants(); err != nil {
				t.Log(err)
				return false
			}
			held := uint64(0)
			for _, data := range stored {
				held += max(1, (uint64(len(data))+4095)/4096)
			}
			if m.FreePages()+held != 64 {
				t.Logf("op %d: %d pages free and %d held by fields, of 64", op, m.FreePages(), held)
				return false
			}
			for i, want := range stored {
				got, err := m.Read(Handle(i + 1))
				if err != nil || !bytes.Equal(got, want) {
					t.Logf("op %d: field %d: %v", op, i+1, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestNumFields(t *testing.T) {
	m, _ := New(1<<18, 4096)
	m.Allocate([]byte{1})
	if m.NumFields() != 1 {
		t.Errorf("NumFields = %d", m.NumFields())
	}
	m.SetFaults(faultsim.New(faultsim.Policy{Schedule: []faultsim.Scheduled{
		{Op: 1, Kind: faultsim.WriteErr},
	}}))
	m.Allocate([]byte{2})
	if m.NumFields() != 1 {
		t.Errorf("NumFields after a failed write = %d", m.NumFields())
	}
}

// BenchmarkRead times the LFM's one page loop on a 2 MiB field — the
// VOLUME of a paper-scale study, 128^3 voxels in Hilbert order. Through
// IO.ReadAtInto: the whole field unbuffered, checksummed and from a warm
// cache, a 16-page range, and a 512-byte piece inside one page. Through
// IO.ReadRunsInto, the read EXTRACT_DATA makes: the runs of the paper's
// Q2 box (30–100 on every axis, long runs) and of an intensity band of
// the field's bytes (128–159, runs of 32 bytes every 251), unbuffered and
// from a warm cache, grouped into reads as the server groups them — runs
// whose pages touch or abut share one read. Every case allocates
// nothing (0 allocs/op).
func BenchmarkRead(b *testing.B) {
	const size = 2 << 20
	data := pattern(size, 0x07)
	box, err := region.FromBox(sfc.MustNew(sfc.Hilbert, 3, 7), region.Box{Min: sfc.Pt(30, 30, 30), Max: sfc.Pt(100, 100, 100)})
	if err != nil {
		b.Fatal(err)
	}
	var band []region.Run
	for i, v := range data {
		switch in := v >= 128 && v <= 159; {
		case in && len(band) > 0 && band[len(band)-1].Hi == uint64(i)-1:
			band[len(band)-1].Hi++
		case in:
			band = append(band, region.Run{Lo: uint64(i), Hi: uint64(i)})
		}
	}
	for _, bc := range []struct {
		name       string
		cachePages int
		off, n     uint64
		runs       []region.Run // nil: ReadAtInto of [off, off+n)
	}{
		{"whole", 0, 0, size, nil},
		{"whole-cached", size / 4096, 0, size, nil},
		{"range-16-pages", 0, 64 * 4096, 16 * 4096, nil},
		{"sub-page-512B", 0, 64*4096 + 1000, 512, nil},
		{"gather-q2-box", 0, 0, 0, box.RunsView()},
		{"gather-q2-box-cached", size / 4096, 0, 0, box.RunsView()},
		{"gather-band", 0, 0, 0, band},
		{"gather-band-cached", size / 4096, 0, 0, band},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m, err := New(1<<24, 4096)
			if err != nil {
				b.Fatal(err)
			}
			h, err := m.Allocate(data)
			if err != nil {
				b.Fatal(err)
			}
			m.EnableCache(bc.cachePages)
			io := IO{M: m}
			read := func(dst []byte) error { return io.ReadAtInto(h, bc.off, dst) }
			if bc.runs != nil {
				groups := readGroups(bc.runs)
				bc.n = 0
				for _, r := range bc.runs {
					bc.n += r.Len()
				}
				read = func(dst []byte) error {
					for _, g := range groups {
						if err := io.ReadRunsInto(h, g.runs, dst[:g.n]); err != nil {
							return err
						}
						dst = dst[g.n:]
					}
					return nil
				}
			}
			dst := make([]byte, bc.n)
			// One read first fills the cache, as a running server's is.
			if err := read(dst); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(bc.n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := read(dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// readGroup is one gathering read of a run list: its runs and their
// length in bytes.
type readGroup struct {
	runs []region.Run
	n    uint64
}

// readGroups splits runs into the reads extraction makes at the seed
// plan's gap: a run whose first page is at most one past the last page
// of the read before it joins that read.
func readGroups(runs []region.Run) []readGroup {
	var groups []readGroup
	for i := 0; i < len(runs); {
		last, n := runs[i].Hi/4096, runs[i].Len()
		j := i + 1
		for ; j < len(runs) && runs[j].Lo/4096 <= last+1; j++ {
			last = runs[j].Hi / 4096
			n += runs[j].Len()
		}
		groups = append(groups, readGroup{runs[i:j], n})
		i = j
	}
	return groups
}
