package relax

// Cache was relaxation's encoding cache. Relaxation now sizes
// instructions without encoding them, so nothing reads a Cache.
//
// Deprecated: relaxation has no encoding cache; drop the Cache.
type Cache struct{}

// NewCacheLimits returns a Cache, which nothing reads. Both arguments
// are ignored.
//
// Deprecated: relaxation has no encoding cache; drop the call.
func NewCacheLimits(_, _ int) *Cache { return &Cache{} }
