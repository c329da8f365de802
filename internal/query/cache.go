package query

import "sync"

// DefaultCacheCapacity is the compiled-query capacity of a Cache built
// with NewCache(0).
const DefaultCacheCapacity = 256

// CacheStats reports the effectiveness of a Cache.
type CacheStats struct {
	// Hits and Misses count Compile calls answered from / not in the
	// cache. Parse failures count as misses and are never cached. A call
	// that loses a concurrent parse race on the same string counts as a
	// hit — it is served the winner's entry — so Misses equals the number
	// of parses that populated the cache (plus failed parses), even under
	// contention.
	Hits, Misses int64
	// Size is the number of compiled queries currently cached; Capacity
	// the maximum before least-recently-used eviction.
	Size, Capacity int
}

// Cache is a fixed-capacity, concurrency-safe LRU cache of compiled
// queries. Query compilation is pure (a Query is immutable once built),
// so a cached *Query may be shared freely between goroutines; the cache
// sits in front of Compile on the serving hot path, where the same query
// strings arrive over and over.
type Cache struct {
	mu      sync.Mutex
	entries lru[string, *Query] // query text -> compiled query
	hits    int64
	misses  int64
}

// compileRaceHook, when non-nil, runs after a Compile call has recorded
// its miss and released the lock, before it parses. Tests use it to hold
// several goroutines inside the lost-parse-race window deterministically.
var compileRaceHook func(src string)

// NewCache builds a compiled-query cache holding at most capacity
// entries; capacity <= 0 means DefaultCacheCapacity.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &Cache{entries: newLRU[string, *Query](capacity)}
}

// Compile returns the compiled form of src, parsing it only if no cached
// compilation exists. Errors are returned verbatim and not cached.
func (c *Cache) Compile(src string) (*Query, error) {
	c.mu.Lock()
	if q, ok := c.entries.get(src); ok {
		c.hits++
		c.mu.Unlock()
		return q, nil
	}
	c.misses++
	c.mu.Unlock()

	if h := compileRaceHook; h != nil {
		h(src)
	}

	// Parse outside the lock: compilation is pure, so two goroutines
	// racing on the same uncached string merely both parse it once.
	q, err := Compile(src)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if first, ok := c.entries.get(src); ok {
		// Lost the race; keep the first insertion and reclassify the miss
		// recorded above as a hit — this call was served from the cache
		// after all, and without the correction Hits+Misses would
		// over-report the number of parses under contention.
		c.misses--
		c.hits++
		return first, nil
	}
	c.entries.put(src, q)
	return q, nil
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Size: c.entries.len(), Capacity: c.entries.cap}
}

// Purge empties the cache, keeping the hit/miss counters.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries.purge()
}
