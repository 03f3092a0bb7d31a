// Package lfm implements a stand-in for the Starburst Long Field Manager
// [18] the paper relies on: long fields stored directly on a disk device
// (not a file system), each in one contiguous extent, with fast random
// I/O to arbitrary pieces and no internal buffering. Starburst allocates
// buddy segments so that the space of deleted fields can be used again;
// this store is written once, at load, and then only read, so each field
// is laid end to end after the one before it, from a page boundary, and
// holds the pages its bytes span.
//
// The device here is simulated memory — backed lazily, so only ranges
// that have been written occupy any — with page-granular I/O accounting:
// every read or write touches whole 4 KB pages and increments counters,
// which is exactly the "LFM Disk I/Os (4KB Pages)" metric of the paper's
// Tables 3 and 4. A read transfers its pages one at a time, in order,
// the manager lock held for one page transfer at a time, and PageReads
// counts the transfers it made, each re-read of a page that failed its
// checksum included (readPage): all of its pages when it succeeds; when
// a read fault stops it, the pages before that one; when a checksum
// mismatch does, the pages through the one that failed. A read either
// fills one contiguous piece of a field or gathers the bytes of a sorted
// run list out of the pages those runs span (IO.ReadRunsInto), in the
// same page loop: a contiguous piece is one run. By default there is no
// buffering, so repeated reads of the same page count every time,
// matching the paper's measurement protocol. An optional fixed-capacity
// CLOCK page cache (EnableCache) absorbs repeated reads of hot pages;
// with it on, PageReads counts only device transfers (misses) and the
// hit/miss split is reported in Stats.
package lfm

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"qbism/internal/faultsim"
	"qbism/internal/region"
)

// DefaultPageSize is the paper's 4 KB I/O unit.
const DefaultPageSize = 4096

// Common errors.
var (
	ErrNoSpace       = errors.New("lfm: out of device space")
	ErrUnknownHandle = errors.New("lfm: unknown long field handle")
	ErrOutOfRange    = errors.New("lfm: read beyond field end")
	// ErrReadFault is an injected device read error (transient media
	// failure); callers may retry.
	ErrReadFault = errors.New("lfm: device read fault")
	// ErrWriteFault is an injected device write error.
	ErrWriteFault = errors.New("lfm: device write fault")
	// ErrChecksum means a page failed its stored CRC32 on two transfers
	// in a row: it rotted at rest (a re-read cures a flip in transfer).
	ErrChecksum = errors.New("lfm: page checksum mismatch")
)

// Handle identifies a stored long field.
type Handle uint64

// Stats counts device traffic since the last reset.
type Stats struct {
	PageReads    uint64 // 4 KB pages read
	PageWrites   uint64 // 4 KB pages written
	BytesRead    uint64 // logical bytes returned to callers
	BytesWritten uint64 // logical bytes stored by callers
	Reads        uint64 // read operations
	Writes       uint64 // write operations

	FaultsInjected   uint64 // device faults injected by the fault policy
	ChecksumFailures uint64 // page transfers rejected by CRC verification: a cured flip 1, a rotted page 2

	CacheHits      uint64 // page requests served from the page cache
	CacheMisses    uint64 // page requests that went to the device
	CacheEvictions uint64 // cached pages evicted by the CLOCK sweep
}

// CacheHitRate returns hits/(hits+misses), or 0 with no cached traffic.
func (s Stats) CacheHitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// Sub returns s - o: the traffic between two readings of a cumulative
// meter (Manager.Stats), for metrics over a window. A call is billed by
// its IO, never by such a difference, which other calls move too.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		PageReads:        s.PageReads - o.PageReads,
		PageWrites:       s.PageWrites - o.PageWrites,
		BytesRead:        s.BytesRead - o.BytesRead,
		BytesWritten:     s.BytesWritten - o.BytesWritten,
		Reads:            s.Reads - o.Reads,
		Writes:           s.Writes - o.Writes,
		FaultsInjected:   s.FaultsInjected - o.FaultsInjected,
		ChecksumFailures: s.ChecksumFailures - o.ChecksumFailures,
		CacheHits:        s.CacheHits - o.CacheHits,
		CacheMisses:      s.CacheMisses - o.CacheMisses,
		CacheEvictions:   s.CacheEvictions - o.CacheEvictions,
	}
}

// Add adds o to s, field by field.
func (s *Stats) Add(o Stats) {
	s.PageReads += o.PageReads
	s.PageWrites += o.PageWrites
	s.BytesRead += o.BytesRead
	s.BytesWritten += o.BytesWritten
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.FaultsInjected += o.FaultsInjected
	s.ChecksumFailures += o.ChecksumFailures
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.CacheEvictions += o.CacheEvictions
}

type field struct {
	off  uint64   // device offset, page-aligned
	size uint64   // logical length
	sums []uint32 // CRC32 of each page as written
}

// Manager is the long field manager. It is safe for concurrent use: a
// mutex serializes every allocation, every change to the device and
// every page transfer, so parallel query workers can read long fields
// (and draw from the shared fault injector) without races. Starburst's
// LFM serialized per transaction; ours serializes per page transfer —
// what a simulated single-spindle device does — so a long read holds the
// lock for one page at a time, and the bytes a read gathers out of a
// page it does not take whole are copied after the lock is released,
// from a page buffer its IO owns.
type Manager struct {
	mu       sync.Mutex
	pageSize uint64
	capacity uint64
	dev      [][]byte // in-memory device, by extent; guarded by mu
	// fields[h-1] is field h: handles are dense, in allocation order,
	// and never reused. guarded by mu
	fields []field
	// next is the device offset of the first unallocated page, where
	// the next field goes. guarded by mu
	next  uint64
	stats Stats // guarded by mu

	// faults, when non-nil, injects device failures on page reads and
	// writes (faultsim.ReadErr/PageCorrupt/WriteErr/TornWrite).
	// guarded by mu
	faults *faultsim.Injector
	// cache, when non-nil, is the CLOCK page cache; reads consult it
	// page by page and only misses touch the device. guarded by mu
	cache *pageCache
}

// New creates a manager over a simulated device of the given capacity in
// bytes. Capacity is rounded up to whole pages. pageSize <= 0 selects
// DefaultPageSize.
func New(capacity uint64, pageSize int) (*Manager, error) {
	ps := uint64(pageSize)
	if pageSize <= 0 {
		ps = DefaultPageSize
	}
	if ps&(ps-1) != 0 {
		return nil, fmt.Errorf("lfm: page size %d not a power of two", ps)
	}
	if capacity < ps {
		return nil, fmt.Errorf("lfm: capacity %d smaller than one page", capacity)
	}
	return &Manager{pageSize: ps, capacity: (capacity + ps - 1) / ps * ps}, nil
}

// PageSize returns the device page size in bytes.
func (m *Manager) PageSize() uint64 { return m.pageSize }

// Capacity returns the device capacity in bytes.
func (m *Manager) Capacity() uint64 { return m.capacity }

// Stats returns the cumulative traffic counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// ResetStats zeroes the traffic counters.
func (m *Manager) ResetStats() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats = Stats{}
}

// Close is a no-op: the in-memory device holds no external resources.
// It lets owners release a manager the way they release their other
// resources.
func (m *Manager) Close() error { return nil }

// NumFields returns the number of stored long fields.
func (m *Manager) NumFields() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.fields)
}

// SetFaults installs (or, with nil, removes) the device fault injector.
func (m *Manager) SetFaults(in *faultsim.Injector) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.faults = in
}

// EnableCache installs a CLOCK page cache holding at most pages pages
// (pages <= 0 removes the cache and returns the manager to the paper's
// unbuffered measurement protocol). With the cache on, reads consult it
// page by page: hits cost no device I/O, misses are the pages a read
// transfers, verified as every transferred page is, and then inserted
// (cached pages were verified on fill, so a hit is not checked again).
// A field is written once, by Allocate; Corrupt, the fault hook, is the
// one change to stored bytes, and it drops the field's cached pages.
func (m *Manager) EnableCache(pages int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if pages <= 0 {
		m.cache = nil
		return
	}
	m.cache = newPageCache(pages)
}

// Corrupt flips stored bytes of a field on the device without updating
// its checksum table — a chaos hook simulating at-rest media corruption
// (bit rot). xor is applied to the byte at logical offset off.
func (m *Manager) Corrupt(h Handle, off uint64, xor byte) error {
	f, err := m.field(h)
	if err != nil {
		return err
	}
	if off >= f.size {
		return fmt.Errorf("%w: corrupt at %d of %d-byte field", ErrOutOfRange, off, f.size)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// The corruption must be observable: drop any cached copy of the
	// field's pages so the next read goes to the (now rotten) device.
	if m.cache != nil {
		m.cache.invalidateField(h)
	}
	b := make([]byte, 1)
	m.devRead(f.off+off, b)
	b[0] ^= xor
	m.devWriteRaw(f.off+off, b)
	return nil
}

// pageChecksums splits data into pageSize chunks (the last may be
// short) and returns their CRC32s.
func pageChecksums(data []byte, pageSize uint64) []uint32 {
	n := (uint64(len(data)) + pageSize - 1) / pageSize
	sums := make([]uint32, 0, n)
	for off := uint64(0); off < uint64(len(data)); off += pageSize {
		end := off + pageSize
		if end > uint64(len(data)) {
			end = uint64(len(data))
		}
		sums = append(sums, crc32.ChecksumIEEE(data[off:end]))
	}
	return sums
}

// usedPages returns the pages a field of size bytes holds: the pages
// its bytes span, and at least one, so every field has its own offset.
func (m *Manager) usedPages(size uint64) uint64 {
	return max(1, (size+m.pageSize-1)/m.pageSize)
}

// Allocate stores data as a new long field at the first unallocated
// page and returns its handle. The field holds the pages its bytes span,
// at least one, and the next field starts on the page after them. The
// write is counted page-granularly, and the field's page checksums are
// recorded from the bytes it was given: every page a read transfers is
// checked against them. A failed write records nothing: the next field
// is written over the pages it touched.
func (m *Manager) Allocate(data []byte) (Handle, error) {
	size := uint64(len(data))
	sums := pageChecksums(data, m.pageSize)
	m.mu.Lock()
	defer m.mu.Unlock()
	off := m.next
	pages := m.usedPages(size)
	if pages > (m.capacity-off)/m.pageSize {
		return 0, ErrNoSpace
	}
	if err := m.devWrite(off, data); err != nil {
		return 0, err
	}
	m.fields = append(m.fields, field{off: off, size: size, sums: sums})
	m.next += pages * m.pageSize
	m.stats.Writes++
	m.stats.BytesWritten += size
	m.stats.PageWrites += m.pagesSpanned(off, size)
	return Handle(len(m.fields)), nil
}

// Size returns the logical length of a field.
func (m *Manager) Size(h Handle) (uint64, error) {
	f, err := m.field(h)
	return f.size, err
}

// Read returns the whole field.
func (m *Manager) Read(h Handle) ([]byte, error) { return (&IO{M: m}).Read(h) }

// ReadAt returns n bytes starting at logical offset off within the field
// — the LFM's "fast random I/O to arbitrary pieces of long fields". Each
// call is a separate I/O operation: reading k disjoint pieces costs the
// pages each piece spans, which is how run-clustered layouts save I/O.
func (m *Manager) ReadAt(h Handle, off, n uint64) ([]byte, error) {
	return (&IO{M: m}).read(h, false, off, n, nil)
}

// field returns h's field. A field, once allocated, never changes, so a
// read looks it up once and then transfers its pages under the lock one
// at a time.
func (m *Manager) field(h Handle) (field, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h == 0 || h > Handle(len(m.fields)) {
		return field{}, ErrUnknownHandle
	}
	return m.fields[h-1], nil
}

// readPages is every read's one page loop. It reads [off, off+n) of
// field f one page at a time, in order, and gathers into dst the bytes
// of runs — sorted, disjoint, inside the range — packed in run order; a
// contiguous read is one run. A page lying inside one run is transferred
// straight into dst; any other lands in *page, a page buffer the caller
// owns (made on first need), and the bytes its runs want are copied out
// of it once the lock is released. Each page is transferred under the
// lock (readPage) and counted in cost; the read's Reads and BytesRead
// are counted with its last page, and under that last hold — or that of
// the page that failed, which stops the read — cost goes to the device
// meter, so the meter is the sum of the bills of the reads that have
// ended. PageReads counts the transfers made, whether or not the read
// then fails.
func (m *Manager) readPages(cost *Stats, page *[]byte, h Handle, f field, off, n uint64, runs []region.Run, dst []byte) error {
	if n == 0 {
		m.mu.Lock()
		m.stats.Reads++
		m.mu.Unlock()
		cost.Reads++
		return nil
	}
	ps := m.pageSize
	var at uint64 // where runs[0]'s first byte goes in dst
	for j, last := off/ps, (off+n-1)/ps; j <= last; j++ {
		lo, hi := j*ps, min((j+1)*ps, f.size)
		want := len(runs) > 0 && runs[0].Lo < hi
		direct := want && runs[0].Lo <= lo && hi-1 <= runs[0].Hi
		var out []byte
		if direct {
			out = dst[at+lo-runs[0].Lo : at+hi-runs[0].Lo]
		} else {
			if *page == nil {
				*page = make([]byte, ps)
			}
			out = (*page)[:hi-lo]
		}
		m.mu.Lock()
		err := m.readPage(cost, h, f, j, out, want)
		if err == nil && j == last {
			cost.Reads++
			cost.BytesRead += n
		}
		if err != nil || j == last {
			m.stats.Add(*cost)
		}
		m.mu.Unlock()
		if err != nil {
			return err
		}
		for len(runs) > 0 && runs[0].Lo < hi {
			r := runs[0]
			if !direct {
				a, b := max(r.Lo, lo), min(r.Hi+1, hi)
				copy(dst[at+a-r.Lo:at+b-r.Lo], out[a-lo:b-lo])
			}
			if r.Hi >= hi {
				break // the run goes on into the next page
			}
			at += r.Len()
			runs = runs[1:]
		}
	}
	return nil
}

// readPage transfers logical page j of field f, whose len(out) bytes it
// leaves in out when want is set, and counts in cost what it did. A
// page the cache holds is copied out of it: no device transfer, no fault
// decision (nothing crossed the bus) and no checksum work (it was
// verified when it was filled). Any other page takes one fault decision
// and is then transferred whole — into the cache's spare frame, and
// copied out of it, or straight into out. ReadErr stops the read before
// the transfer; PageCorrupt flips one bit of the transferred page (the
// device itself stays intact — a transient bus/DMA error). Every
// transferred page is checked, whole, against the field's checksum
// table; a mismatch is transferred once more, into the same frame, so a
// flip in transfer is cured and a second mismatch is rot (ErrChecksum).
// Only a verified page is cached: one that fails its read or its
// checksum leaves the cache, and the page it would have evicted, as
// they were. Callers must hold m.mu.
func (m *Manager) readPage(cost *Stats, h Handle, f field, j uint64, out []byte, want bool) error {
	key := pageKey{h: h, page: j}
	if m.cache != nil {
		if page := m.cache.get(key); page != nil {
			cost.CacheHits++
			if want {
				copy(out, page)
			}
			return nil
		}
		cost.CacheMisses++
	}
	page := out
	if m.cache != nil {
		page = m.cache.spareFrame(m.pageSize)[:len(out)]
	}
	for transfers := 1; ; transfers++ {
		var pos int
		var mask byte // 0: no corruption drawn
		switch m.faults.ReadFault() {
		case faultsim.ReadErr:
			cost.FaultsInjected++
			return fmt.Errorf("lfm: page %d: %w", (f.off+j*m.pageSize)/m.pageSize, ErrReadFault)
		case faultsim.PageCorrupt:
			cost.FaultsInjected++
			pos, mask = m.faults.Intn(int(m.pageSize)), 1<<m.faults.Intn(8)
		}
		m.devRead(f.off+j*m.pageSize, page)
		cost.PageReads++
		if mask != 0 && pos < len(page) {
			page[pos] ^= mask
		}
		if int(j) < len(f.sums) && crc32.ChecksumIEEE(page) == f.sums[j] {
			break
		}
		cost.ChecksumFailures++
		if transfers == 2 {
			cost.Reads++
			return fmt.Errorf("lfm: field %d page %d: %w", h, j, ErrChecksum)
		}
	}
	if m.cache != nil {
		if m.cache.put(key, page) {
			cost.CacheEvictions++
		}
		if want {
			copy(out, page)
		}
	}
	return nil
}

// pagesSpanned counts the device pages the byte range [off, off+n) touches.
func (m *Manager) pagesSpanned(off, n uint64) uint64 {
	if n == 0 {
		return 0
	}
	first := off / m.pageSize
	last := (off + n - 1) / m.pageSize
	return last - first + 1
}

// FreePages returns the number of device pages after the last field.
func (m *Manager) FreePages() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return (m.capacity - m.next) / m.pageSize
}

// CheckInvariants validates the layout: the fields lie end to end in
// handle order from offset 0, each holding the pages its bytes span (at
// least one) with a checksum per page, up to the first unallocated page,
// which lies within the device. Intended for tests.
func (m *Manager) CheckInvariants() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var off uint64
	for i, f := range m.fields {
		if f.off != off {
			return fmt.Errorf("lfm: field %d at %d, want %d", i+1, f.off, off)
		}
		if uint64(len(f.sums)) != m.pagesSpanned(off, f.size) {
			return fmt.Errorf("lfm: field %d has %d page checksums for %d bytes", i+1, len(f.sums), f.size)
		}
		off += m.usedPages(f.size) * m.pageSize
	}
	if off != m.next || m.next > m.capacity {
		return fmt.Errorf("lfm: fields end at %d, next page at %d, capacity %d", off, m.next, m.capacity)
	}
	return nil
}

// devWrite stores data at the device offset, page by page so the fault
// policy can fail or tear individual pages. A WriteErr aborts mid-write
// (pages already written stay written — a torn multi-page write the
// caller sees as an error); a TornWrite silently stores only the first
// half of that page's chunk and reports success, to be caught later by
// checksum verification. Callers must hold m.mu.
func (m *Manager) devWrite(off uint64, data []byte) error {
	for len(data) > 0 {
		n := m.pageSize - off%m.pageSize
		if n > uint64(len(data)) {
			n = uint64(len(data))
		}
		chunk := data[:n]
		switch m.faults.WriteFault() {
		case faultsim.WriteErr:
			m.stats.FaultsInjected++
			return fmt.Errorf("lfm: page %d: %w", off/m.pageSize, ErrWriteFault)
		case faultsim.TornWrite:
			m.stats.FaultsInjected++
			chunk = chunk[:(n+1)/2]
		}
		m.devWriteRaw(off, chunk)
		off += n
		data = data[n:]
	}
	return nil
}

// extentSize is the unit the in-memory device is backed in. The device
// is capacity bytes of address space, but an extent gets memory only
// when something is first written into it; an extent never written
// reads as zeros, exactly as the eagerly zeroed device did. Sixteen
// default pages: small against any field worth measuring, large enough
// that a 2 MB VOLUME is a few dozen copies.
const extentSize = 64 << 10

// devWriteRaw stores bytes at the device offset with no fault policy.
// Callers must hold m.mu.
func (m *Manager) devWriteRaw(off uint64, data []byte) {
	for len(data) > 0 {
		e, within := off/extentSize, off%extentSize
		for uint64(len(m.dev)) <= e {
			m.dev = append(m.dev, nil)
		}
		if m.dev[e] == nil {
			m.dev[e] = make([]byte, min(extentSize, m.capacity-e*extentSize))
		}
		n := copy(m.dev[e][within:], data)
		off += uint64(n)
		data = data[n:]
	}
}

// devRead fills out from the device offset. Callers must hold m.mu.
func (m *Manager) devRead(off uint64, out []byte) {
	for len(out) > 0 {
		e, within := off/extentSize, off%extentSize
		n := min(uint64(len(out)), extentSize-within)
		if e < uint64(len(m.dev)) && m.dev[e] != nil {
			copy(out[:n], m.dev[e][within:])
		} else {
			clear(out[:n])
		}
		off += n
		out = out[n:]
	}
}
