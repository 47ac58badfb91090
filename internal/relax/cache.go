package relax

import (
	"sync"
	"sync/atomic"

	"mao/internal/ir"
	"mao/internal/lru"
	"mao/internal/x86/encode"
)

// DefaultEntries is the default entry cap. The largest corpus unit
// holds a few hundred distinct instruction texts, so one-shot
// pipelines never evict; the cap exists for long-lived daemons
// (cmd/maod), where an unbounded cache would keep an entry for every
// idiom ever encoded.
const DefaultEntries = 1 << 14 // 16384

// keyBuf is the size of the stack buffer a lookup renders its key
// into. Longer instruction texts still work; they grow the buffer.
const keyBuf = 64

// Cache memoizes instruction encodings across relaxation iterations,
// across Relax calls and across units. Only position-independent
// encodings (encode.PositionIndependent) are cached; branches and
// symbolic references always re-encode at their current address.
//
// The key is the instruction's canonical text, so the cache needs no
// invalidation: a pass that mutates an instruction in place changes
// its key, and a repeated idiom (the same "decl %ecx" in every unit)
// encodes once. A lookup renders the key into a stack buffer, and a
// key of at most 32 bytes (every instruction of the committed corpus)
// is looked up without allocating.
//
// The cache is bounded: it holds at most its configured entry cap and
// evicts least-recently-used entries beyond it, so a shared cache in a
// long-lived process (the maod daemon keeps one for its whole
// lifetime) has a fixed memory ceiling. An evicted entry re-encodes on
// next use, so eviction affects only the hit rate.
//
// A Cache is safe for concurrent use; a nil *Cache disables caching.
type Cache struct {
	mu      sync.Mutex
	entries *lru.Cache[string, []byte]

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// NewCache returns an empty encoding cache with the default entry cap.
func NewCache() *Cache { return NewCacheLimits(0, DefaultEntries) }

// NewCacheLimits returns an empty encoding cache holding at most
// entries entries (<= 0 selects DefaultEntries). Beyond the cap the
// least recently used entry is evicted. The first argument is unused:
// it capped a node-identity tier the cache no longer has.
func NewCacheLimits(_, entries int) *Cache {
	if entries <= 0 {
		entries = DefaultEntries
	}
	return &Cache{entries: lru.New[string, []byte](entries)}
}

// Len returns the current number of entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.Len()
}

// Counters returns the cumulative hit and miss counts.
func (c *Cache) Counters() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// Evictions returns the cumulative count of entries dropped by the
// LRU cap.
func (c *Cache) Evictions() int64 {
	if c == nil {
		return 0
	}
	return c.evictions.Load()
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (c *Cache) HitRate() float64 {
	h, m := c.Counters()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// encodeCached is the cache-aware encoding path of the relaxation
// loop: position-independent instructions go through the cache, every
// other instruction encodes at its current address.
func encodeCached(c *Cache, n *ir.Node, ctx *encode.Ctx) ([]byte, error) {
	if c == nil || !encode.PositionIndependent(n.Inst) {
		return encode.Encode(n.Inst, ctx)
	}
	var buf [keyBuf]byte
	key := n.Inst.AppendTo(buf[:0])
	c.mu.Lock()
	b, ok := c.entries.Get(string(key))
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
		return b, nil
	}
	c.misses.Add(1)
	b, err := encode.Encode(n.Inst, ctx)
	if err != nil {
		return nil, err
	}
	k := string(key)
	c.mu.Lock()
	evicted := c.entries.Add(k, b)
	c.mu.Unlock()
	c.evictions.Add(int64(evicted))
	return b, nil
}
