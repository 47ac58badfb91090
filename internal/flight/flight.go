// Package flight implements in-flight miss coalescing: concurrent
// requests for the same key share one run of the expensive work
// behind it. Its one user is maod, which shares pipeline runs keyed on
// the result-cache key (Group[jobResult]) between single requests and
// archive units alike; maorouter coalesces nothing, since identical
// requests hash onto one shard. The protocol and its invariants live
// here, tested apart from the server.
//
// The first caller to Join a key — the leader — starts the run;
// everyone arriving while that run is in flight waits on it instead of
// starting their own, and receives the shared result the moment it
// lands. The run is detached from any single waiter: one waiter
// leaving (its client canceled, its deadline expired) never aborts the
// run for the others, and only the LAST waiter leaving cancels it.
// Requests that must not share (a fresh run was asked for, or the
// answer is unique to the request) take a Solo call: the same
// lifecycle, with nobody able to join.
//
// The protocol's invariants (the first is the caller's to keep):
//
//   - The leader publishes on every path — success, refusal, error —
//     so a waiter can never hang on a call whose run died silently.
//   - Publish unmaps the call: later arrivals for the key start fresh
//     (or hit whatever cache the result was stored in).
//   - The last waiter to leave an unpublished call unmaps it and
//     cancels the run: nobody is left to consume it, and a later
//     arrival must not adopt a doomed run. The canceled run still
//     publishes, which then delivers to no one.
package flight

import (
	"context"
	"sync"
)

// Group indexes in-flight calls by key. The zero value is ready to
// use; a Group must not be copied after first use.
type Group[V any] struct {
	mu sync.Mutex
	m  map[string]*Call[V]
}

// Call is one shared run. Waiters block in Wait, which returns the
// published result.
type Call[V any] struct {
	g    *Group[V]
	key  string
	done chan struct{}
	res  V

	// Guarded by g.mu. refs counts participants (leader included)
	// still waiting; published flips when the result lands.
	refs      int
	published bool
	cancel    context.CancelFunc
}

// Join returns the in-flight call for key, creating one when absent.
// leader reports that this caller created it: the leader must start
// the run and Publish exactly once on every path. Any participant that
// stops waiting before the Publish must Leave.
func (g *Group[V]) Join(key string) (c *Call[V], leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.m[key]; ok {
		c.refs++
		return c, false
	}
	if g.m == nil {
		g.m = make(map[string]*Call[V])
	}
	c = &Call[V]{g: g, key: key, done: make(chan struct{}), refs: 1}
	g.m[key] = c
	return c, true
}

// Solo returns a call no other request can join. Its caller is the
// leader and the only waiter, so leaving it cancels the run.
func (g *Group[V]) Solo() *Call[V] {
	return &Call[V]{g: g, done: make(chan struct{}), refs: 1}
}

// SetCancel installs the run's cancel func. Leader only, before the
// run starts — so by the time any follower can observe a call worth
// canceling, the func is in place.
func (c *Call[V]) SetCancel(cancel context.CancelFunc) {
	c.g.mu.Lock()
	c.cancel = cancel
	c.g.mu.Unlock()
}

// Publish posts the shared result, wakes every waiter and retires the
// call. Exactly one Publish per call.
func (c *Call[V]) Publish(res V) {
	g := c.g
	g.mu.Lock()
	c.res = res
	c.published = true
	cancel := c.cancel
	g.unmapLocked(c)
	g.mu.Unlock()
	close(c.done)
	if cancel != nil {
		cancel() // release the detached run context's deadline timer
	}
}

// Leave drops one waiter before the Publish (its own request died).
// The last waiter out of an unpublished call unmaps it and cancels the
// run.
func (c *Call[V]) Leave() {
	g := c.g
	g.mu.Lock()
	c.refs--
	var cancel context.CancelFunc
	if c.refs == 0 && !c.published {
		g.unmapLocked(c)
		cancel = c.cancel
	}
	g.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// unmapLocked removes c from the index if it is still the key's call
// (a Solo call never is). Callers hold g.mu.
func (g *Group[V]) unmapLocked(c *Call[V]) {
	if g.m[c.key] == c {
		delete(g.m, c.key)
	}
}

// Done is closed once the result is published.
func (c *Call[V]) Done() <-chan struct{} { return c.done }

// Wait blocks until the result is published or ctx ends. When ctx ends
// first, the caller leaves the call and Wait returns ctx's error.
func (c *Call[V]) Wait(ctx context.Context) (V, error) {
	select {
	case <-c.done:
		return c.res, nil
	case <-ctx.Done():
		c.Leave()
		var zero V
		return zero, ctx.Err()
	}
}
