package serve

import (
	"sync"
	"sync/atomic"

	"mao/internal/cachekey"
	"mao/internal/lru"
)

// resultKey builds the content address of a request: the SHA-256 of
// the source plus every request field the response depends on. Two
// requests with the same key are guaranteed the same response, so a
// cached answer is exact, not approximate. The derivation itself lives
// in internal/cachekey (golden-vector pinned) because the shard router
// must compute the identical key to concentrate cache hits per shard.
func resultKey(req *OptimizeRequest) string {
	return cachekey.Key(cachekey.Request{
		Name:    req.Name,
		Source:  req.Source,
		Spec:    req.Spec,
		Check:   req.Options.Check,
		Explain: req.Options.Explain,
		Verify:  req.Options.Verify,
	})
}

// resultCache is the content-addressed response cache: an LRU map
// from resultKey to the completed response. Entries are immutable
// once stored (handlers serialize them without copying).
type resultCache struct {
	mu      sync.Mutex
	entries *lru.Cache[string, *OptimizeResponse] // nil when disabled

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
		c.entries = lru.New[string, *OptimizeResponse](capEntries)
	}
	return c
}

// get returns the cached response for key, refreshing its recency.
func (c *resultCache) get(key string) (*OptimizeResponse, bool) {
	if c.entries == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, ok := c.entries.Get(key)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return resp, ok
}

// put stores a completed response, evicting the least recently used
// entry beyond the cap.
func (c *resultCache) put(key string, resp *OptimizeResponse) {
	if c.entries == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evictions.Add(int64(c.entries.Add(key, resp)))
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
