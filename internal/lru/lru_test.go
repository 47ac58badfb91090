package lru

import (
	"fmt"
	"testing"
)

// keys reports which of the candidate keys are resident, probing in
// order (each probe that hits refreshes that key).
func keys(c *Cache[string, int], candidates ...string) string {
	s := ""
	for _, k := range candidates {
		if _, ok := c.Get(k); ok {
			s += k
		}
	}
	return s
}

// TestEvictionOrder: beyond the bound the least recently used entry
// goes first, and a Get counts as a use.
func TestEvictionOrder(t *testing.T) {
	c := New[string, int](3)
	for i, k := range []string{"a", "b", "c"} {
		if n := c.Add(k, i); n != 0 {
			t.Fatalf("Add(%s) evicted %d below the bound", k, n)
		}
	}
	c.Get("a") // recency, oldest first: b c a
	if n := c.Add("d", 3); n != 1 {
		t.Fatalf("Add(d) evicted %d, want 1", n)
	}
	if got := keys(c, "a", "b", "c", "d"); got != "acd" {
		t.Errorf("resident %q, want acd (b was least recent)", got)
	}
	// The probes above left the order a c d; c is now the oldest but
	// one, a the oldest.
	if n := c.Add("e", 4); n != 1 {
		t.Fatalf("Add(e) evicted %d, want 1", n)
	}
	if got := keys(c, "a", "c", "d", "e"); got != "cde" {
		t.Errorf("resident %q, want cde (a was least recent)", got)
	}
	if c.Len() != 3 {
		t.Errorf("Len = %d, want 3", c.Len())
	}
}

// TestAddRefreshesExistingKey: re-adding a key replaces its value,
// makes it most recent, and evicts nothing.
func TestAddRefreshesExistingKey(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	if n := c.Add("a", 10); n != 0 {
		t.Fatalf("re-Add evicted %d, want 0", n)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d after re-Add, want 2", c.Len())
	}
	if n := c.Add("c", 3); n != 1 {
		t.Fatalf("Add(c) evicted %d, want 1", n)
	}
	if v, ok := c.Get("a"); !ok || v != 10 {
		t.Errorf("Get(a) = %d, %v; want the replaced value 10, resident", v, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("b survived although a was refreshed after it")
	}
}

// TestEvictedCounts: the counts Add returns sum to exactly the entries
// that left through the bound.
func TestEvictedCounts(t *testing.T) {
	const bound = 4
	c := New[string, int](bound)
	total := 0
	for i := 0; i < 100; i++ {
		total += c.Add(fmt.Sprint(i%10), i)
		if c.Len() > bound {
			t.Fatalf("Len %d exceeds the bound %d", c.Len(), bound)
		}
	}
	// Ten keys cycle through four slots, so each key has been evicted
	// by the time it recurs: every Add after the first four evicts one.
	if want := 100 - bound; total != want {
		t.Errorf("evicted %d in total, want %d", total, want)
	}
	// Refreshing resident keys evicts nothing.
	for i := 0; i < 10; i++ {
		if n := c.Add("9", i); n != 0 {
			t.Fatalf("refreshing a resident key evicted %d", n)
		}
	}
}
