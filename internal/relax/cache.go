package relax

import (
	"sync"
	"sync/atomic"

	"mao/internal/ir"
	"mao/internal/lru"
	"mao/internal/x86/encode"
)

// Default per-tier entry caps. They are sized for the committed corpus
// with an order of magnitude of headroom: the largest corpus unit holds
// a few thousand instruction nodes (node tier) and a few hundred
// distinct instruction texts (content tier), so one-shot pipelines
// never evict. The caps exist for long-lived daemons (cmd/maod), where
// an unbounded cache keyed on node identity would retain entries for
// every unit ever optimized.
const (
	DefaultNodeEntries    = 1 << 16 // 65536
	DefaultContentEntries = 1 << 14 // 16384
)

// Cache memoizes instruction encodings across relaxation iterations and
// across repeated Relax calls — the phase-ordering / profile-guided
// re-run workload, where the same unit is relaxed many times with only
// a few functions changing in between. Only position-independent
// encodings (encode.PositionIndependent) are cached; branches and
// symbolic references always re-encode at their current address.
//
// The cache has two tiers:
//
//   - A node tier keyed on the *ir.Node identity. It is the fast path
//     (no key computation at all) but is only sound under the
//     invalidation protocol: passes mutate instructions in place, so
//     whoever runs passes over the unit must call InvalidateFunction
//     for every function a pass changed (pass.Manager does this
//     whenever a FuncPass reports changed, and InvalidateAll after a
//     changed UnitPass). A stale node entry returns the bytes of the
//     pre-mutation instruction.
//   - A content tier keyed on the instruction's canonical text. It is
//     unconditionally sound — mutating an instruction changes its key —
//     and catches repeated idioms (the same "decl %ecx" encodes once
//     per unit, not once per occurrence).
//
// Both tiers are bounded: each holds at most its configured entry cap
// and evicts least-recently-used entries beyond it, so a shared cache
// in a long-lived process (the maod daemon keeps one for its whole
// lifetime) has a fixed memory ceiling. Eviction only ever forgets —
// an evicted entry re-encodes on next use — so it cannot affect
// soundness, only the hit rate.
//
// A Cache is safe for concurrent use; a nil *Cache disables caching.
type Cache struct {
	mu      sync.Mutex
	node    *lru.Cache[*ir.Node, []byte]
	content *lru.Cache[string, []byte]

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// NewCache returns an empty encoding cache with the default entry caps.
func NewCache() *Cache {
	return NewCacheLimits(DefaultNodeEntries, DefaultContentEntries)
}

// NewCacheLimits returns an empty encoding cache holding at most
// nodeEntries node-tier and contentEntries content-tier entries
// (values <= 0 select the defaults). Beyond a cap the least recently
// used entry is evicted.
func NewCacheLimits(nodeEntries, contentEntries int) *Cache {
	if nodeEntries <= 0 {
		nodeEntries = DefaultNodeEntries
	}
	if contentEntries <= 0 {
		contentEntries = DefaultContentEntries
	}
	return &Cache{
		node:    lru.New[*ir.Node, []byte](nodeEntries),
		content: lru.New[string, []byte](contentEntries),
	}
}

// lookup returns the cached encoding for the node, trying the node tier
// first and falling back to the content tier (promoting the entry to
// the node tier on a content hit). The caller must have established
// that the node's instruction is position-independent.
func (c *Cache) lookup(n *ir.Node) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.node.Get(n); ok {
		c.hits.Add(1)
		return b, true
	}
	if b, ok := c.content.Get(n.Inst.String()); ok {
		c.evictions.Add(int64(c.node.Add(n, b)))
		c.hits.Add(1)
		return b, true
	}
	c.misses.Add(1)
	return nil, false
}

// store records a freshly computed position-independent encoding in
// both tiers.
func (c *Cache) store(n *ir.Node, b []byte) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evictions.Add(int64(c.node.Add(n, b) + c.content.Add(n.Inst.String(), b)))
}

// InvalidateFunction drops the node-tier entries of every node in the
// function's span. Call it after a pass reported changing the function:
// passes mutate instructions in place, and a stale node entry would
// silently encode the pre-mutation instruction. The content tier needs
// no invalidation (its keys are the instruction text).
func (c *Cache) InvalidateFunction(f *ir.Function) {
	if c == nil || f == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for n := f.EntryLabel(); n != nil; n = n.Next() {
		c.node.Remove(n)
		if n == f.End() {
			break
		}
	}
}

// InvalidateAll drops the whole node tier (after a unit-wide mutation
// whose extent is unknown). The content tier survives.
func (c *Cache) InvalidateAll() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.node.Clear()
}

// Len returns the current number of node- and content-tier entries.
func (c *Cache) Len() (nodes, contents int) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.node.Len(), c.content.Len()
}

// Counters returns the cumulative hit and miss counts.
func (c *Cache) Counters() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// Evictions returns the cumulative count of entries dropped by the
// LRU caps (invalidations are not evictions).
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
	if b, ok := c.lookup(n); ok {
		return b, nil
	}
	b, err := encode.Encode(n.Inst, ctx)
	if err != nil {
		return nil, err
	}
	c.store(n, b)
	return b, nil
}
