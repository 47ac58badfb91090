package relax

import (
	"testing"

	"mao/internal/ir"
	"mao/internal/x86"
	"mao/internal/x86/encode"
)

const cacheSrc = `
	.text
.globl f
.type f, @function
f:
	push %rbp
	mov %rsp,%rbp
	movl $5, %eax
	movl $5, %ecx
	decl %ecx
	decl %ecx
	jne .Lf
.Lf:
	addl $1, %eax
	pop %rbp
	ret
.size f, .-f
.globl g
.type g, @function
g:
	movl $5, %eax
	decl %ecx
	ret
.size g, .-g
`

// TestCacheTransparent: a cached relaxation produces exactly the
// layout an uncached one does.
func TestCacheTransparent(t *testing.T) {
	u1, plain := relaxed(t, cacheSrc)
	u2 := parse(t, cacheSrc)
	c := NewCache()
	cached, err := Relax(u2, &Options{Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	i1, i2 := findInsts(u1), findInsts(u2)
	if len(i1) != len(i2) {
		t.Fatalf("instruction counts differ")
	}
	for k := range i1 {
		if plain.Addr(i1[k]) != cached.Addr(i2[k]) {
			t.Errorf("inst %d: addr %#x (plain) vs %#x (cached)", k, plain.Addr(i1[k]), cached.Addr(i2[k]))
		}
		if string(plain.Bytes(i1[k])) != string(cached.Bytes(i2[k])) {
			t.Errorf("inst %d: bytes differ", k)
		}
	}
	if h, m := c.Counters(); h == 0 || m == 0 {
		t.Errorf("expected both hits and misses on first relaxation, got %d/%d", h, m)
	}
}

// TestCacheHitRateSecondRun: relaxing the same unchanged unit a second
// time through the same cache serves at least half of all lookups from
// cache — the acceptance bar for the repeated-pipeline workload.
func TestCacheHitRateSecondRun(t *testing.T) {
	u := parse(t, cacheSrc)
	c := NewCache()
	if _, err := Relax(u, &Options{Cache: c}); err != nil {
		t.Fatal(err)
	}
	h0, m0 := c.Counters()
	if _, err := Relax(u, &Options{Cache: c}); err != nil {
		t.Fatal(err)
	}
	h1, m1 := c.Counters()
	hits, misses := h1-h0, m1-m0
	if misses != 0 {
		t.Errorf("second identical relaxation missed %d times", misses)
	}
	if total := hits + misses; total == 0 || float64(hits)/float64(total) < 0.5 {
		t.Errorf("second-run hit rate %d/%d below 50%%", hits, total)
	}
	if c.HitRate() <= 0 {
		t.Errorf("HitRate = %v", c.HitRate())
	}
}

// TestCacheInvalidation: an instruction mutated in place, with no
// call into the cache, re-encodes through the shared cache to its new
// bytes. The key is the instruction's text, so nothing can go stale.
func TestCacheInvalidation(t *testing.T) {
	u := parse(t, cacheSrc)
	c := NewCache()
	l1, err := Relax(u, &Options{Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	f := u.Functions()[0]
	target := f.Instructions()[2] // movl $5, %eax
	before := string(l1.Bytes(target))

	// Mutate in place, as passes do.
	target.Inst.Args[0].Imm = 7

	l2, err := Relax(u, &Options{Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	after := string(l2.Bytes(target))
	if before == after {
		t.Errorf("mutated instruction re-encoded to identical bytes % x", after)
	}
	uncached, err := Relax(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(uncached.Bytes(target)) != after {
		t.Errorf("cached encoding % x differs from uncached % x", after, uncached.Bytes(target))
	}
}

// TestNilCacheSafe: every method of a nil *Cache is a no-op.
func TestNilCacheSafe(t *testing.T) {
	var c *Cache
	if h, m := c.Counters(); h != 0 || m != 0 {
		t.Error("nil counters nonzero")
	}
	if c.HitRate() != 0 || c.Len() != 0 || c.Evictions() != 0 {
		t.Error("nil hit rate, length or evictions nonzero")
	}
	u := parse(t, cacheSrc)
	if _, err := Relax(u, &Options{Cache: c}); err != nil {
		t.Fatal(err)
	}
}

// TestBranchesNeverCached: position-dependent instructions bypass the
// cache entirely, so branch re-encoding at new addresses stays exact.
func TestBranchesNeverCached(t *testing.T) {
	u := parse(t, cacheSrc)
	c := NewCache()
	if _, err := Relax(u, &Options{Cache: c}); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range findInsts(u) {
		if op := n.Inst.Op; op == x86.OpJCC || op == x86.OpJMP {
			if _, ok := c.entries.Get(n.Inst.String()); ok {
				t.Errorf("branch %v found in the cache", n.Inst)
			}
		}
	}
	if _, ok := c.entries.Get(""); ok {
		t.Error("empty key")
	}
}

// TestCacheBounded: the cache never exceeds its configured cap, the
// cap evicts LRU-first, and an evicting cache still produces exactly
// the uncached layout (eviction forgets, it never corrupts).
func TestCacheBounded(t *testing.T) {
	u := parse(t, cacheSrc)
	c := NewCacheLimits(0, 2)
	bounded, err := Relax(u, &Options{Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	if n := c.Len(); n > 2 {
		t.Errorf("%d entries exceed the cap of 2", n)
	}
	if c.Evictions() == 0 {
		t.Error("a tiny cap over the fixture must evict")
	}
	// Compare the bounded-cache layout against a fresh uncached one.
	u2 := parse(t, cacheSrc)
	plain, err := Relax(u2, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, b := findInsts(u), findInsts(u2)
	if len(a) != len(b) {
		t.Fatal("instruction counts differ")
	}
	for k := range a {
		if string(bounded.Bytes(a[k])) != string(plain.Bytes(b[k])) {
			t.Errorf("inst %d: bounded-cache bytes differ from uncached", k)
		}
		if bounded.Addr(a[k]) != plain.Addr(b[k]) {
			t.Errorf("inst %d: bounded-cache addr differs from uncached", k)
		}
	}
}

// TestCacheDefaultsNeverEvictOnCorpusUnit: the default cap is sized
// so one-shot pipelines over a unit of this scale never evict.
func TestCacheDefaultsNeverEvictOnCorpusUnit(t *testing.T) {
	u := parse(t, cacheSrc)
	c := NewCache()
	for i := 0; i < 3; i++ {
		if _, err := Relax(u, &Options{Cache: c}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Evictions() != 0 {
		t.Errorf("default caps evicted %d entries on a small unit", c.Evictions())
	}
}

// TestCacheLRUOrder: with a cap of 2, touching entry A keeps it
// resident while the untouched entry is evicted.
func TestCacheLRUOrder(t *testing.T) {
	u := parse(t, cacheSrc)
	insts := findInsts(u)
	var cacheable []*ir.Node
	for _, n := range insts {
		if encode.PositionIndependent(n.Inst) {
			dup := false
			for _, m := range cacheable {
				if m.Inst.String() == n.Inst.String() {
					dup = true
					break
				}
			}
			if !dup {
				cacheable = append(cacheable, n)
			}
		}
	}
	if len(cacheable) < 3 {
		t.Skipf("fixture has only %d distinct cacheable instructions", len(cacheable))
	}
	c := NewCacheLimits(0, 2)
	ctx := &encode.Ctx{}
	enc := func(n *ir.Node) {
		t.Helper()
		if _, err := encodeCached(c, n, ctx); err != nil {
			t.Fatal(err)
		}
	}
	enc(cacheable[0]) // {0}
	enc(cacheable[1]) // {0,1}
	enc(cacheable[0]) // refresh 0 → LRU order 1,0
	enc(cacheable[2]) // evicts 1 → {0,2}
	c.mu.Lock()
	_, has0 := c.entries.Get(cacheable[0].Inst.String())
	_, has1 := c.entries.Get(cacheable[1].Inst.String())
	_, has2 := c.entries.Get(cacheable[2].Inst.String())
	c.mu.Unlock()
	if !has0 || has1 || !has2 {
		t.Errorf("LRU order wrong: have0=%v have1=%v have2=%v (want t,f,t)", has0, has1, has2)
	}
}

// TestCacheHitNoAllocs: a hit on a node the cache has never seen,
// whose text is cached and at most 32 bytes long, allocates nothing:
// the key is rendered into a stack buffer and looked up in place.
func TestCacheHitNoAllocs(t *testing.T) {
	u := parse(t, cacheSrc)
	var inst *x86.Inst
	for _, n := range findInsts(u) {
		if encode.PositionIndependent(n.Inst) && n.Inst.Op == x86.OpMOV {
			inst = n.Inst
			break
		}
	}
	if inst == nil {
		t.Fatal("fixture has no position-independent mov")
	}
	if l := len(inst.String()); l > 32 {
		t.Fatalf("%q is %d bytes, want at most 32", inst, l)
	}
	c := NewCache()
	ctx := &encode.Ctx{}
	if _, err := encodeCached(c, ir.InstNode(inst.Clone()), ctx); err != nil {
		t.Fatal(err)
	}
	const runs = 50
	fresh := make([]*ir.Node, runs+1) // AllocsPerRun adds a warm-up call
	for i := range fresh {
		fresh[i] = ir.InstNode(inst.Clone())
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		n := fresh[next]
		next++
		if _, err := encodeCached(c, n, ctx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a hit on a fresh node allocates %.1f times, want 0", allocs)
	}
	if h, m := c.Counters(); h != runs+1 || m != 1 {
		t.Errorf("counters %d hits, %d misses; want %d, 1", h, m, runs+1)
	}
}
