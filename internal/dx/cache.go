package dx

import "sync"

// Cache is the DX result cache: "Because of the caching mechanism built
// into DX, the user can quickly review and manipulate the results of
// several recently issued queries without necessitating a database
// reaccess." The paper flushes it before each measured run; Flush does
// that here.
type Cache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*Field // guarded by mu
	order   []string          // LRU order, least recent first; guarded by mu
}

// NewCache creates a cache holding at most max fields (max <= 0 means 8,
// a plausible "several recently issued queries").
func NewCache(max int) *Cache {
	if max <= 0 {
		max = 8
	}
	return &Cache{max: max, entries: make(map[string]*Field)}
}

// Get returns the cached field for a query key.
func (c *Cache) Get(key string) (*Field, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.entries[key]
	if ok {
		c.touch(key)
	}
	return f, ok
}

// Put stores a field, evicting the least recently used entry if full.
func (c *Cache) Put(key string, f *Field) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.entries[key]; exists {
		c.entries[key] = f
		c.touch(key)
		return
	}
	if len(c.entries) >= c.max {
		// Shift rather than reslice, so the list keeps the front of its
		// array and Flush reaches every key it ever held.
		oldest := c.order[0]
		n := copy(c.order, c.order[1:])
		c.order[n] = ""
		c.order = c.order[:n]
		delete(c.entries, oldest)
	}
	c.entries[key] = f
	c.order = append(c.order, key)
}

// touch moves key to the most-recent end. Caller holds the lock.
func (c *Cache) touch(key string) {
	for i, k := range c.order {
		if k == key {
			c.order = append(append(c.order[:i:i], c.order[i+1:]...), key)
			return
		}
	}
}

// Flush empties the cache (done before each measured run in Section 6.1).
// It clears the map and the LRU list in place: the next Put reuses
// their memory, and neither keeps a Field or a key reachable.
func (c *Cache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.entries)
	clear(c.order[:cap(c.order)])
	c.order = c.order[:0]
}
