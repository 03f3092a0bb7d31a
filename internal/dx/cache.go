package dx

import "sync"

// Cache is the DX result cache: "Because of the caching mechanism built
// into DX, the user can quickly review and manipulate the results of
// several recently issued queries without necessitating a database
// reaccess." It keeps the most recently used fields under a comparable
// key K, held by value, so a lookup builds nothing on the heap; a hit,
// and a Put into a full cache, reuse its memory. An entry keeps its
// *Field alive, with the object the Field lies in and the bytes it
// points into.
type Cache[K comparable] struct {
	mu      sync.Mutex
	max     int
	entries map[K]*Field // guarded by mu
	order   []K          // LRU order, least recent first; guarded by mu
}

// NewCache creates a cache holding at most max fields (max <= 0 means 8,
// a plausible "several recently issued queries").
func NewCache[K comparable](max int) *Cache[K] {
	if max <= 0 {
		max = 8
	}
	return &Cache[K]{max: max, entries: make(map[K]*Field)}
}

// Get returns the cached field for a query key.
func (c *Cache[K]) Get(key K) (*Field, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.entries[key]
	if ok {
		c.touch(key)
	}
	return f, ok
}

// Put stores a field, evicting the least recently used entry if full.
func (c *Cache[K]) Put(key K, f *Field) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.entries[key]; exists {
		c.entries[key] = f
		c.touch(key)
		return
	}
	if len(c.entries) >= c.max {
		// Shift rather than reslice, so the list keeps the front of its
		// array and the append below reuses it.
		oldest := c.order[0]
		n := copy(c.order, c.order[1:])
		var zero K
		c.order[n] = zero
		c.order = c.order[:n]
		delete(c.entries, oldest)
	}
	c.entries[key] = f
	c.order = append(c.order, key)
}

// touch moves key to the most-recent end, shifting the keys after it
// down in place. Caller holds the lock.
func (c *Cache[K]) touch(key K) {
	for i, k := range c.order {
		if k == key {
			copy(c.order[i:], c.order[i+1:])
			c.order[len(c.order)-1] = key
			return
		}
	}
}
