package lfm

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"
)

// heapInUse returns the live heap after a forced collection.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestLazyDeviceHoldsOnlyWhatWasWritten: capacity is address space, not
// memory. A 64 GiB manager with one 10 KB field must cost about one
// extent, keep the full capacity and allocator accounting, and read
// never-written bytes as zeros.
func TestLazyDeviceHoldsOnlyWhatWasWritten(t *testing.T) {
	before := heapInUse()
	m, err := New(64<<30, 0)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xab}, 10_000)
	h, err := m.Allocate(data)
	if err != nil {
		t.Fatal(err)
	}
	if grew := int64(heapInUse()) - int64(before); grew > 4*extentSize {
		t.Errorf("one %d-byte field on a %d GiB device holds %d bytes of heap", len(data), m.Capacity()>>30, grew)
	}
	if m.Capacity() != 64<<30 || m.FreePages() != (64<<30)/DefaultPageSize-4 {
		t.Errorf("capacity %d, %d pages free", m.Capacity(), m.FreePages())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if got, err := m.Read(h); err != nil || !bytes.Equal(got, data) {
		t.Errorf("read back %d bytes, err %v", len(got), err)
	}
	// The field's block is four pages; the bytes past the data, and a
	// whole device's worth of space beyond, were never written.
	zeros := make([]byte, 3*extentSize)
	for i := range zeros {
		zeros[i] = 0xff
	}
	if err := m.devRead(uint64(len(data)), zeros); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(zeros, make([]byte, len(zeros))) {
		t.Error("never-written device range does not read as zeros")
	}
	// Still a bounded device: a field larger than the capacity is refused.
	small, err := New(8*DefaultPageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := small.Allocate(make([]byte, 9*DefaultPageSize)); !errors.Is(err, ErrNoSpace) {
		t.Errorf("oversized field on a small device: %v, want ErrNoSpace", err)
	}
	runtime.KeepAlive(m)
}

// TestLazyDeviceMatchesFlatModel drives random allocate / overwrite /
// free / read traffic, sized to straddle extent boundaries, against a
// plain map of what each field should hold, with checksums on.
func TestLazyDeviceMatchesFlatModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m, err := New(16<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.EnableChecksums(); err != nil {
		t.Fatal(err)
	}
	model := make(map[Handle][]byte)
	var live []Handle
	payload := func() []byte {
		b := make([]byte, 1+rng.Intn(5*extentSize/2))
		rng.Read(b)
		return b
	}
	for step := 0; step < 600; step++ {
		switch op := rng.Intn(4); {
		case op == 0 || len(live) == 0:
			data := payload()
			h, err := m.Allocate(data)
			if errors.Is(err, ErrNoSpace) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			model[h], live = data, append(live, h)
		case op == 1:
			h, data := live[rng.Intn(len(live))], payload()
			if err := m.Overwrite(h, data); err == nil {
				model[h] = data
			} else if !errors.Is(err, ErrNoSpace) {
				t.Fatal(err)
			}
		case op == 2:
			i := rng.Intn(len(live))
			if err := m.Free(live[i]); err != nil {
				t.Fatal(err)
			}
			delete(model, live[i])
			live = append(live[:i], live[i+1:]...)
		default:
			h := live[rng.Intn(len(live))]
			want := model[h]
			off := uint64(rng.Intn(len(want)))
			n := uint64(rng.Intn(len(want) - int(off) + 1))
			got, err := m.ReadAt(h, off, n)
			if err != nil || !bytes.Equal(got, want[off:off+n]) {
				t.Fatalf("step %d: ReadAt(%d, %d, %d): err %v, bytes equal %v", step, h, off, n, err, bytes.Equal(got, want[off:off+n]))
			}
		}
	}
	for h, want := range model {
		if got, err := m.Read(h); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("field %d: err %v, bytes equal %v", h, err, bytes.Equal(got, want))
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestCorruptAcrossExtentBoundary rots the last byte of one extent and
// the first of the next inside a single field: each flip is caught on
// exactly its own page, Overwrite heals both, and Free returns the
// block.
func TestCorruptAcrossExtentBoundary(t *testing.T) {
	m, err := New(4<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.EnableChecksums(); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 3*extentSize)
	rand.New(rand.NewSource(5)).Read(data)
	h, err := m.Allocate(data)
	if err != nil {
		t.Fatal(err)
	}
	// The first field of an empty device sits at offset 0, so logical
	// offset extentSize is an extent boundary on the device too.
	const edge = extentSize
	pagesPerExtent := uint64(extentSize / DefaultPageSize)
	for _, off := range []uint64{edge - 1, edge} {
		if err := m.Corrupt(h, off, 0x40); err != nil {
			t.Fatal(err)
		}
	}
	for page := uint64(0); page < 3*pagesPerExtent; page++ {
		_, err := m.ReadAt(h, page*DefaultPageSize, DefaultPageSize)
		rotten := page == pagesPerExtent-1 || page == pagesPerExtent
		if rotten != errors.Is(err, ErrChecksum) {
			t.Errorf("page %d: err %v, rotten %v", page, err, rotten)
		}
	}
	if _, err := m.ReadAt(h, edge-8, 16); !errors.Is(err, ErrChecksum) {
		t.Errorf("read straddling the rotten boundary: %v", err)
	}
	if err := m.Overwrite(h, data); err != nil {
		t.Fatal(err)
	}
	if got, err := m.ReadAt(h, edge-8, 16); err != nil || !bytes.Equal(got, data[edge-8:edge+8]) {
		t.Errorf("after overwrite: err %v", err)
	}
	free := m.FreePages()
	if err := m.Free(h); err != nil {
		t.Fatal(err)
	}
	if got := m.FreePages(); got != free+4*pagesPerExtent {
		t.Errorf("free returned %d pages, want the field's %d-page block", got-free, 4*pagesPerExtent)
	}
}
