package serve

import (
	"sync"
	"sync/atomic"

	"mao/internal/lru"
)

// resultCache is the content-addressed response cache: an LRU map
// from a request's key (OptimizeRequest.Key: the SHA-256 of the source
// plus every request field the response depends on, so a cached answer
// is exact, not approximate) to the completed response. Entries are
// immutable once stored (handlers serialize them without copying).
type resultCache struct {
	mu      sync.Mutex
	entries *lru.Cache[string, *cacheEntry] // nil when disabled

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// newResultCache returns a cache holding at most capEntries responses;
// capEntries < 0 disables caching entirely (every get misses, puts are
// dropped).
func newResultCache(capEntries int) *resultCache {
	c := &resultCache{}
	if capEntries > 0 {
		c.entries = lru.New[string, *cacheEntry](capEntries)
	}
	return c
}

// cacheEntry is one cached response and, from its first hit on, the
// bytes every hit answers with.
type cacheEntry struct {
	resp *OptimizeResponse
	once sync.Once
	hit  []byte
	err  error
}

// hitBody returns the entry's hit answer: the response with Cached set,
// encoded as writeJSON encodes it. It is encoded on the entry's first
// hit and written as stored by every later one, so a hit pays no JSON
// work after the first and a miss pays none at all.
func (e *cacheEntry) hitBody() ([]byte, error) {
	e.once.Do(func() {
		cached := *e.resp
		cached.Cached = true
		e.hit, e.err = encodeJSON(&cached)
	})
	return e.hit, e.err
}

// get returns the cache entry for key, refreshing its recency.
func (c *resultCache) get(key string) (*cacheEntry, bool) {
	if c.entries == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries.Get(key)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return e, ok
}

// put stores a completed response, evicting the least recently used
// entry beyond the cap.
func (c *resultCache) put(key string, resp *OptimizeResponse) {
	if c.entries == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evictions.Add(int64(c.entries.Add(key, &cacheEntry{resp: resp})))
}

// len returns the current entry count.
func (c *resultCache) len() int {
	if c.entries == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.Len()
}
