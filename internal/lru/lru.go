// Package lru is the bounded least-recently-used map behind every
// cache in the module: the relaxation encoding cache, the pipeline
// memo, and maod's result cache.
//
// A Cache does no locking of its own. Each caller already serializes
// its cache under a lock it holds for other reasons (the counters and
// lookups around the cache), so a second lock inside would only be
// taken twice.
package lru

// Cache maps keys to values and holds at most a fixed number of
// entries: adding past the bound evicts the least recently used entry.
// Get and Add count as uses. A Cache is not safe for concurrent use
// and must not be copied; build one with New.
type Cache[K comparable, V any] struct {
	max   int
	items map[K]*entry[K, V]
	// root is the sentinel of a circular recency list: root.next is
	// the most recently used entry, root.prev the least.
	root entry[K, V]
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *entry[K, V]
}

// New returns an empty cache holding at most max entries.
func New[K comparable, V any](max int) *Cache[K, V] {
	c := &Cache[K, V]{max: max, items: make(map[K]*entry[K, V])}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Get returns the value stored under k and marks it most recently
// used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	e, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.touch(e)
	return e.val, true
}

// Add stores v under k as the most recently used entry, replacing any
// value already there, and returns how many entries it evicted to stay
// within the bound.
func (c *Cache[K, V]) Add(k K, v V) (evicted int) {
	if e, ok := c.items[k]; ok {
		e.val = v
		c.touch(e)
		return 0
	}
	e := &entry[K, V]{key: k, val: v}
	c.items[k] = e
	c.pushFront(e)
	for len(c.items) > c.max {
		victim := c.root.prev
		c.unlink(victim)
		delete(c.items, victim.key)
		evicted++
	}
	return evicted
}

// Len returns the number of entries.
func (c *Cache[K, V]) Len() int { return len(c.items) }

// touch makes e the most recently used entry.
func (c *Cache[K, V]) touch(e *entry[K, V]) {
	if c.root.next != e {
		c.unlink(e)
		c.pushFront(e)
	}
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = &c.root, c.root.next
	c.root.next.prev = e
	c.root.next = e
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}
