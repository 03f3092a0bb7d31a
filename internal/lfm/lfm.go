// Package lfm implements a stand-in for the Starburst Long Field Manager
// [18] the paper relies on: long fields stored directly on a disk device
// (not a file system) using a buddy allocation scheme to promote
// contiguity, with fast random I/O to arbitrary pieces and no internal
// buffering.
//
// The device here is simulated memory — backed lazily, so only ranges
// that have been written occupy any — with page-granular I/O accounting:
// every read or write touches whole 4 KB pages and increments counters,
// which is exactly the "LFM Disk I/Os (4KB Pages)" metric of the paper's
// Tables 3 and 4. By default there is no buffering, so repeated reads of
// the same page count every time, matching the paper's measurement
// protocol. An optional fixed-capacity CLOCK page cache (EnableCache)
// absorbs repeated reads of hot pages; with it on, PageReads counts only
// device transfers (misses) and the hit/miss split is reported in Stats.
package lfm

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"sync"

	"qbism/internal/faultsim"
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
	// ErrChecksum means a page's content does not match its stored
	// CRC32 — corruption on the device or in transfer was detected.
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
	ChecksumFailures uint64 // page reads rejected by CRC verification

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

// Sub returns s - o, for measuring a single query's traffic.
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
	off   uint64 // device offset
	size  uint64 // logical length
	order int    // buddy block order (block size = pageSize << order)
}

// Manager is the long field manager. It is safe for concurrent use: a
// mutex serializes every operation, so parallel query workers can read
// long fields (and draw from the shared fault injector) without races.
// Starburst's LFM serialized per transaction; ours serializes per I/O
// operation, which is what a simulated single-spindle device would do
// anyway.
type Manager struct {
	mu        sync.Mutex
	pageSize  uint64
	capacity  uint64
	dev       [][]byte    // in-memory device, by extent (unused when file-backed); guarded by mu
	file      *os.File    // file-backed device (nil when in-memory)
	fdev      *FileDevice // owner of file, closed by Close; guarded by mu
	maxOrder  int
	freeLists [][]uint64       // freeLists[k] = offsets of free blocks of order k; guarded by mu
	fields    map[Handle]field // guarded by mu
	nextID    Handle           // guarded by mu
	stats     Stats            // guarded by mu

	// faults, when non-nil, injects device failures on page reads and
	// writes (faultsim.ReadErr/PageCorrupt/WriteErr/TornWrite).
	// guarded by mu
	faults *faultsim.Injector
	// verify enables per-page CRC32 checksums: computed on write,
	// checked on read. guarded by mu
	verify bool
	// sums holds each field's per-page CRC32 table while verify is on.
	// guarded by mu
	sums map[Handle][]uint32
	// cache, when non-nil, is the CLOCK page cache; reads consult it
	// page by page and only misses touch the device. guarded by mu
	cache *pageCache
}

// New creates a manager over a simulated device of the given capacity in
// bytes. Capacity is rounded up to a power-of-two multiple of pageSize.
// pageSize <= 0 selects DefaultPageSize.
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
	pages := (capacity + ps - 1) / ps
	// Round pages up to a power of two so the whole device is one buddy block.
	if pages&(pages-1) != 0 {
		pages = 1 << bits.Len64(pages)
	}
	maxOrder := bits.TrailingZeros64(pages)
	m := &Manager{
		pageSize:  ps,
		capacity:  pages * ps,
		maxOrder:  maxOrder,
		freeLists: make([][]uint64, maxOrder+1),
		fields:    make(map[Handle]field),
		nextID:    1,
	}
	m.freeLists[maxOrder] = []uint64{0}
	return m, nil
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

// Close releases the backing device. In-memory managers hold no
// external resources, so Close is a no-op for them; a file-backed
// manager closes the device file it took ownership of in NewFileBacked.
// The manager must not be used after Close.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.fdev == nil {
		return nil
	}
	dev := m.fdev
	m.fdev = nil
	m.file = nil
	return dev.Close()
}

// NumFields returns the number of live long fields.
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
// page by page: hits cost no device I/O, misses transfer one page,
// verify its checksum (when checksums are enabled — verification runs
// only on miss, since cached pages were verified on fill), and insert
// it. Overwrite, Free, and Corrupt invalidate the field's cached pages.
func (m *Manager) EnableCache(pages int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if pages <= 0 {
		m.cache = nil
		return
	}
	m.cache = newPageCache(pages)
}

// CachedPages returns how many pages the cache currently holds.
func (m *Manager) CachedPages() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cache == nil {
		return 0
	}
	return m.cache.len()
}

// EnableChecksums switches on per-page CRC32 integrity: every write
// records a checksum per 4 KB page of the field, and every read
// verifies the pages it touches, failing with ErrChecksum on mismatch.
// Fields already on the device are checksummed from their current
// contents. Verification does not change the page accounting — the
// pages checked are exactly the pages the read already touched.
func (m *Manager) EnableChecksums() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.verify {
		return nil
	}
	m.sums = make(map[Handle][]uint32, len(m.fields))
	for h, f := range m.fields {
		data := make([]byte, f.size)
		if err := m.devRead(f.off, data); err != nil {
			return err
		}
		m.sums[h] = pageChecksums(data, m.pageSize)
	}
	m.verify = true
	return nil
}

// ChecksumsEnabled reports whether page checksums are active.
func (m *Manager) ChecksumsEnabled() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.verify
}

// Corrupt flips stored bytes of a field on the device without updating
// its checksum table — a chaos hook simulating at-rest media corruption
// (bit rot). xor is applied to the byte at logical offset off.
func (m *Manager) Corrupt(h Handle, off uint64, xor byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.fields[h]
	if !ok {
		return ErrUnknownHandle
	}
	// The corruption must be observable: drop any cached copy of the
	// field's pages so the next read goes to the (now rotten) device.
	if m.cache != nil {
		m.cache.invalidateField(h)
	}
	if off >= f.size {
		return fmt.Errorf("%w: corrupt at %d of %d-byte field", ErrOutOfRange, off, f.size)
	}
	b := make([]byte, 1)
	if err := m.devRead(f.off+off, b); err != nil {
		return err
	}
	b[0] ^= xor
	return m.devWriteRaw(f.off+off, b)
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

// orderFor returns the smallest buddy order whose block holds size bytes.
func (m *Manager) orderFor(size uint64) int {
	if size == 0 {
		size = 1
	}
	pages := (size + m.pageSize - 1) / m.pageSize
	if pages&(pages-1) == 0 {
		return bits.TrailingZeros64(pages)
	}
	return bits.Len64(pages)
}

// allocBlock carves a block of the given order out of the free lists.
// Callers must hold m.mu.
func (m *Manager) allocBlock(order int) (uint64, error) {
	k := order
	for k <= m.maxOrder && len(m.freeLists[k]) == 0 {
		k++
	}
	if k > m.maxOrder {
		return 0, ErrNoSpace
	}
	off := m.freeLists[k][len(m.freeLists[k])-1]
	m.freeLists[k] = m.freeLists[k][:len(m.freeLists[k])-1]
	// Split down to the requested order, returning upper halves.
	for k > order {
		k--
		buddy := off + m.pageSize<<k
		m.freeLists[k] = append(m.freeLists[k], buddy)
	}
	return off, nil
}

// freeBlock returns a block to the free lists, merging buddies.
// Callers must hold m.mu.
func (m *Manager) freeBlock(off uint64, order int) {
	for order < m.maxOrder {
		size := m.pageSize << order
		buddy := off ^ size
		merged := false
		list := m.freeLists[order]
		for i, b := range list {
			if b == buddy {
				list[i] = list[len(list)-1]
				m.freeLists[order] = list[:len(list)-1]
				if buddy < off {
					off = buddy
				}
				order++
				merged = true
				break
			}
		}
		if !merged {
			break
		}
	}
	m.freeLists[order] = append(m.freeLists[order], off)
}

// Allocate stores data as a new long field and returns its handle.
// The write is counted page-granularly.
func (m *Manager) Allocate(data []byte) (Handle, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	order := m.orderFor(uint64(len(data)))
	if order > m.maxOrder {
		return 0, ErrNoSpace
	}
	off, err := m.allocBlock(order)
	if err != nil {
		return 0, err
	}
	if err := m.devWrite(off, data); err != nil {
		m.freeBlock(off, order)
		return 0, err
	}
	h := m.nextID
	m.nextID++
	m.fields[h] = field{off: off, size: uint64(len(data)), order: order}
	if m.verify {
		m.sums[h] = pageChecksums(data, m.pageSize)
	}
	m.stats.Writes++
	m.stats.BytesWritten += uint64(len(data))
	m.stats.PageWrites += m.pagesSpanned(off, uint64(len(data)))
	return h, nil
}

// Overwrite replaces the contents of an existing field. If the new data
// fits the field's current buddy block the field is updated in place;
// otherwise it is reallocated.
func (m *Manager) Overwrite(h Handle, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.fields[h]
	if !ok {
		return ErrUnknownHandle
	}
	if m.cache != nil {
		m.cache.invalidateField(h)
	}
	if uint64(len(data)) <= m.pageSize<<f.order {
		if err := m.devWrite(f.off, data); err != nil {
			return err
		}
		f.size = uint64(len(data))
		m.fields[h] = f
		if m.verify {
			m.sums[h] = pageChecksums(data, m.pageSize)
		}
		m.stats.Writes++
		m.stats.BytesWritten += uint64(len(data))
		m.stats.PageWrites += m.pagesSpanned(f.off, uint64(len(data)))
		return nil
	}
	order := m.orderFor(uint64(len(data)))
	off, err := m.allocBlock(order)
	if err != nil {
		return err
	}
	m.freeBlock(f.off, f.order)
	if err := m.devWrite(off, data); err != nil {
		return err
	}
	m.fields[h] = field{off: off, size: uint64(len(data)), order: order}
	if m.verify {
		m.sums[h] = pageChecksums(data, m.pageSize)
	}
	m.stats.Writes++
	m.stats.BytesWritten += uint64(len(data))
	m.stats.PageWrites += m.pagesSpanned(off, uint64(len(data)))
	return nil
}

// Size returns the logical length of a field.
func (m *Manager) Size(h Handle) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.fields[h]
	if !ok {
		return 0, ErrUnknownHandle
	}
	return f.size, nil
}

// Read returns the whole field.
func (m *Manager) Read(h Handle) ([]byte, error) { return m.readInto(nil, h, nil) }

// readInto reads the whole field on behalf of io (nil: of no call) into
// buf's backing array when it has room for it, and into a new slice of
// the field's size otherwise. A nil buf is Read.
func (m *Manager) readInto(io *IO, h Handle, buf []byte) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.fields[h]
	if !ok {
		return nil, ErrUnknownHandle
	}
	if buf == nil || uint64(cap(buf)) < f.size {
		buf = make([]byte, f.size)
	}
	out := buf[:f.size]
	if err := m.readBilled(io, h, f, 0, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadAt returns n bytes starting at logical offset off within the field
// — the LFM's "fast random I/O to arbitrary pieces of long fields". Each
// call is a separate I/O operation: reading k disjoint pieces costs the
// pages each piece spans, which is how run-clustered layouts save I/O.
func (m *Manager) ReadAt(h Handle, off, n uint64) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, err := m.fieldRange(h, off, n)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	if err := m.readBilled(nil, h, f, off, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadAtInto is ReadAt into the caller's buffer: it fills dst with the
// len(dst) bytes at logical offset off, under the same lock, fault
// draws, checksum verification and accounting, and allocates nothing on
// the way. When it fails, dst holds unspecified bytes.
func (m *Manager) ReadAtInto(h Handle, off uint64, dst []byte) error {
	return m.readAtInto(nil, h, off, dst)
}

// readAtInto is ReadAtInto on behalf of io (nil: of no call).
func (m *Manager) readAtInto(io *IO, h Handle, off uint64, dst []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, err := m.fieldRange(h, off, uint64(len(dst)))
	if err != nil {
		return err
	}
	return m.readBilled(io, h, f, off, dst)
}

// fieldRange looks a field up and checks that [off, off+n) lies inside
// it. Callers must hold m.mu.
func (m *Manager) fieldRange(h Handle, off, n uint64) (field, error) {
	f, ok := m.fields[h]
	if !ok {
		return field{}, ErrUnknownHandle
	}
	if off > f.size || n > f.size-off {
		return field{}, fmt.Errorf("%w: [%d,%d) of %d-byte field", ErrOutOfRange, off, off+n, f.size)
	}
	return f, nil
}

// readBilled is readRange with what it cost — counted by the read
// itself, whether or not it succeeded — added to the device meter and,
// when the read is on behalf of a call, to that call's bill. Callers
// must hold m.mu.
func (m *Manager) readBilled(io *IO, h Handle, f field, off uint64, dst []byte) error {
	var cost Stats
	err := m.readRange(&cost, h, f, off, dst)
	m.stats.Add(cost)
	if io != nil {
		io.charge(h, cost, err)
	}
	return err
}

// bitFlip records one injected single-bit corruption: logical page j of
// the field, byte position within the page, and the bit mask.
type bitFlip struct {
	page uint64
	pos  int
	mask byte
}

// readRange fills dst with [off, off+len(dst)) of a field, dispatching
// to the cached or verified paths as configured, and counts in cost what
// the read did. Callers must hold m.mu.
func (m *Manager) readRange(cost *Stats, h Handle, f field, off uint64, dst []byte) error {
	n := uint64(len(dst))
	if n == 0 {
		cost.Reads++
		return nil
	}
	if m.cache != nil {
		return m.readCached(cost, h, f, off, dst)
	}
	j0, j1 := off/m.pageSize, (off+n-1)/m.pageSize

	// Fault decisions, one per page touched. ReadErr aborts before any
	// transfer; PageCorrupt flips one bit in the transferred data (the
	// device itself stays intact — a transient bus/DMA error).
	var flips []bitFlip
	if m.faults != nil {
		for j := j0; j <= j1; j++ {
			switch m.faults.ReadFault() {
			case faultsim.ReadErr:
				cost.FaultsInjected++
				return fmt.Errorf("lfm: page %d: %w", (f.off+j*m.pageSize)/m.pageSize, ErrReadFault)
			case faultsim.PageCorrupt:
				cost.FaultsInjected++
				flips = append(flips, bitFlip{
					page: j,
					pos:  m.faults.Intn(int(m.pageSize)),
					mask: 1 << m.faults.Intn(8),
				})
			}
		}
	}

	if m.verify {
		return m.readVerified(cost, h, f, off, dst, j0, j1, flips)
	}

	if err := m.devRead(f.off+off, dst); err != nil {
		return err
	}
	for _, fl := range flips {
		// Apply the flip where the corrupted page position overlaps the
		// requested range.
		abs := fl.page*m.pageSize + uint64(fl.pos)
		if abs >= off && abs < off+n {
			dst[abs-off] ^= fl.mask
		}
	}
	cost.Reads++
	cost.BytesRead += n
	cost.PageReads += m.pagesSpanned(f.off+off, n)
	return nil
}

// readVerified transfers the full pages the range touches, applies any
// injected in-transfer corruption, verifies each page against the
// field's checksum table, and leaves the requested range in dst. A
// request for whole pages — every VOLUME extraction and every whole-field
// read — is transferred into dst and verified there; only a request that
// starts or ends inside a page goes through a buffer of its own. It
// counts the same page I/O the unverified path would — verification
// inspects only pages the read already paid for. Callers must hold m.mu.
func (m *Manager) readVerified(cost *Stats, h Handle, f field, off uint64, dst []byte, j0, j1 uint64, flips []bitFlip) error {
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
	if err := m.devRead(f.off+base, buf); err != nil {
		return err
	}
	for _, fl := range flips {
		pos := fl.page*m.pageSize + uint64(fl.pos) - base
		if pos < uint64(len(buf)) {
			buf[pos] ^= fl.mask
		}
	}
	sums := m.sums[h]
	for j := j0; j <= j1; j++ {
		lo := j*m.pageSize - base
		hi := lo + m.pageSize
		if hi > uint64(len(buf)) {
			hi = uint64(len(buf))
		}
		if int(j) >= len(sums) || crc32.ChecksumIEEE(buf[lo:hi]) != sums[j] {
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

// readCached serves a read page by page through the CLOCK cache. Hits
// copy straight out of the cache with no device traffic, no fault
// decision (nothing crossed the bus), and no checksum work (the page
// was verified when it was filled). Misses transfer the whole page from
// the device into the cache's spare frame, draw one fault decision,
// verify against the field's checksum table when checksums are on, and
// only then insert the page — a fill that fails leaves the cache, and
// the page it would have evicted, exactly as they were. PageReads
// therefore counts device transfers only — exactly what the paper's I/O
// column would be with a buffer pool in front of the LFM. Callers must
// hold m.mu.
func (m *Manager) readCached(cost *Stats, h Handle, f field, off uint64, dst []byte) error {
	n := uint64(len(dst))
	j0, j1 := off/m.pageSize, (off+n-1)/m.pageSize
	sums := m.sums[h]
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
			var flip bitFlip // mask 0: no corruption drawn
			switch m.faults.ReadFault() {
			case faultsim.ReadErr:
				cost.FaultsInjected++
				return fmt.Errorf("lfm: page %d: %w", (f.off+pageLo)/m.pageSize, ErrReadFault)
			case faultsim.PageCorrupt:
				cost.FaultsInjected++
				flip = bitFlip{page: j, pos: m.faults.Intn(int(m.pageSize)), mask: 1 << m.faults.Intn(8)}
			}
			page = m.cache.spareFrame(m.pageSize)[:pageHi-pageLo]
			if err := m.devRead(f.off+pageLo, page); err != nil {
				return err
			}
			if flip.mask != 0 && flip.pos < len(page) {
				page[flip.pos] ^= flip.mask
			}
			cost.PageReads++
			if m.verify {
				if int(j) >= len(sums) || crc32.ChecksumIEEE(page) != sums[j] {
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

// pagesSpanned counts the device pages the byte range [off, off+n) touches.
func (m *Manager) pagesSpanned(off, n uint64) uint64 {
	if n == 0 {
		return 0
	}
	first := off / m.pageSize
	last := (off + n - 1) / m.pageSize
	return last - first + 1
}

// Free releases a field's storage.
func (m *Manager) Free(h Handle) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.fields[h]
	if !ok {
		return ErrUnknownHandle
	}
	if m.cache != nil {
		m.cache.invalidateField(h)
	}
	delete(m.fields, h)
	delete(m.sums, h)
	m.freeBlock(f.off, f.order)
	return nil
}

// FreePages returns the number of free device pages (for invariant checks).
func (m *Manager) FreePages() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var pages uint64
	for k, list := range m.freeLists {
		pages += uint64(len(list)) << k
	}
	return pages
}

// CheckInvariants validates the allocator state: no overlapping
// allocations or free blocks, all blocks aligned to their size, and
// allocated + free pages equal to the device size. Intended for tests.
func (m *Manager) CheckInvariants() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	type span struct{ off, size uint64 }
	var spans []span
	for _, f := range m.fields {
		size := m.pageSize << f.order
		if f.off%size != 0 {
			return fmt.Errorf("lfm: field block at %d misaligned for order %d", f.off, f.order)
		}
		spans = append(spans, span{f.off, size})
	}
	for k, list := range m.freeLists {
		size := m.pageSize << k
		for _, off := range list {
			if off%size != 0 {
				return fmt.Errorf("lfm: free block at %d misaligned for order %d", off, k)
			}
			spans = append(spans, span{off, size})
		}
	}
	var total uint64
	for i, a := range spans {
		total += a.size
		for _, b := range spans[i+1:] {
			if a.off < b.off+b.size && b.off < a.off+a.size {
				return fmt.Errorf("lfm: blocks [%d,%d) and [%d,%d) overlap",
					a.off, a.off+a.size, b.off, b.off+b.size)
			}
		}
	}
	if total != m.capacity {
		return fmt.Errorf("lfm: accounted %d bytes of %d", total, m.capacity)
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
		if err := m.devWriteRaw(off, chunk); err != nil {
			return err
		}
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
func (m *Manager) devWriteRaw(off uint64, data []byte) error {
	if m.file != nil {
		if _, err := m.file.WriteAt(data, int64(off)); err != nil {
			return fmt.Errorf("lfm: device write at %d: %w", off, err)
		}
		return nil
	}
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
	return nil
}

// devRead fills out from the device offset. Callers must hold m.mu.
func (m *Manager) devRead(off uint64, out []byte) error {
	if m.file != nil {
		if _, err := m.file.ReadAt(out, int64(off)); err != nil {
			return fmt.Errorf("lfm: device read at %d: %w", off, err)
		}
		return nil
	}
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
	return nil
}
