package lfm

// pageCache is a fixed-capacity CLOCK (second-chance) page cache over
// long-field pages. The paper's LFM deliberately has no buffering — the
// Tables 3/4 measurement protocol counts every page touch — so the cache
// is strictly opt-in (EnableCache) and all accounting distinguishes
// device page reads (misses) from cache hits.
//
// Keys are (handle, logical page index within the field), the terms a
// read asks in: a handle names one field for the manager's life, and
// Corrupt drops a field's cached pages by it.
//
// CLOCK is chosen over LRU for the same reason most buffer managers
// choose it: a hit only sets a reference bit (no list surgery), which
// keeps the hot hit path short under the manager's mutex.
//
// Page bytes live in frames of full page capacity that the cache owns
// and recycles: a miss is filled into the spare frame, and inserting it
// takes the evicted page's frame as the next spare, so a full cache
// serves misses without allocating. Frames come into being one at a
// time, the first time a slot is filled — a cache sized for the whole
// store costs nothing until the store is actually read.
//
// pageCache has no mutex of its own: every entry point runs under the
// owning Manager's lock.
type pageCache struct {
	entries []cacheEntry    // guarded by Manager.mu
	index   map[pageKey]int // guarded by Manager.mu
	hand    int             // guarded by Manager.mu
	// spare is the frame the next miss is filled into: held by no entry,
	// its contents meaningless. nil until a miss needs it, and again
	// after an insert that evicted nothing. guarded by Manager.mu
	spare []byte
}

type pageKey struct {
	h    Handle
	page uint64 // logical page index within the field
}

type cacheEntry struct {
	key  pageKey
	data []byte // the page: a frame resliced to the page's length (the last page of a field may be short)
	ref  bool   // second-chance reference bit
	live bool
}

// newPageCache creates a cache holding at most pages pages.
func newPageCache(pages int) *pageCache {
	return &pageCache{
		entries: make([]cacheEntry, pages),
		index:   make(map[pageKey]int, pages),
	}
}

// get returns the cached bytes for a page, or nil on a miss. The
// returned slice is the cache's own frame: callers must copy out of it
// before they release the Manager's mu — the next miss may recycle it —
// and never mutate it. Callers must hold the Manager's mu.
func (c *pageCache) get(k pageKey) []byte {
	i, ok := c.index[k]
	if !ok {
		return nil
	}
	c.entries[i].ref = true
	return c.entries[i].data
}

// spareFrame returns the frame a miss is to be filled into — pageSize
// bytes, one full device page — allocating it if the cache holds none.
// The frame stays the cache's: a fill that fails just leaves it spare,
// one that succeeds hands it (resliced to the page's length) to put.
// Callers must hold the Manager's mu.
func (c *pageCache) spareFrame(pageSize uint64) []byte {
	if c.spare == nil {
		c.spare = make([]byte, pageSize)
	}
	return c.spare
}

// put inserts a page that is not cached and was filled into the spare
// frame, evicting by CLOCK sweep if full; the evicted page's frame
// becomes the next spare. Returns whether an existing live entry was
// evicted. Callers must hold the Manager's mu.
func (c *pageCache) put(k pageKey, data []byte) (evicted bool) {
	// Sweep: a dead slot is taken immediately; a live slot with its
	// reference bit set gets a second chance. The sweep terminates
	// because each pass clears one reference bit.
	for {
		e := &c.entries[c.hand]
		if !e.live {
			break
		}
		if e.ref {
			e.ref = false
			c.hand = (c.hand + 1) % len(c.entries)
			continue
		}
		delete(c.index, e.key)
		evicted = true
		break
	}
	// The slot's old frame, back at full capacity; nil if it never had one.
	old := c.entries[c.hand].data
	c.spare = old[:cap(old)]
	c.entries[c.hand] = cacheEntry{key: k, data: data, ref: true, live: true}
	c.index[k] = c.hand
	c.hand = (c.hand + 1) % len(c.entries)
	return evicted
}

// invalidateField drops every cached page of a field, frame and all (on
// Corrupt). Callers must hold the Manager's mu.
func (c *pageCache) invalidateField(h Handle) {
	for k, i := range c.index {
		if k.h == h {
			c.entries[i] = cacheEntry{}
			delete(c.index, k)
		}
	}
}
