package ir

import (
	"sync"
	"sync/atomic"
)

// List is the doubly-linked node list backing a Unit. The zero value
// is an empty list.
//
// Structural mutations (Append, InsertAfter, InsertBefore, Remove) are
// serialized by an internal mutex so that function passes running
// concurrently over disjoint function spans (see pass.Manager's worker
// pool) can mutate their own spans without racing on the shared
// length and head/tail bookkeeping. Traversal (Front/Back/Next/Prev)
// is deliberately unsynchronized: concurrent traversal of a span
// another goroutine is mutating is a logical race the parallel pass
// contract (pass.ParallelSafe) already forbids.
type List struct {
	mu         sync.Mutex
	head, tail *Node
	len        int

	// nextID hands out dense node indices (see Node.Index); the first
	// linked node gets index 1. Indices are never reclaimed.
	nextID int

	// token identifies this list to the nodes it indexed (Node.home).
	// It is a separate object rather than the list itself, so a node
	// removed from the list does not keep the list — and through it
	// the whole unit — reachable.
	token *listToken

	// version counts mutations relevant to layout: every structural op
	// bumps it, and in-place content edits report through BumpVersion.
	// Incremental relaxation snapshots it to detect edits it was not
	// explicitly notified about.
	version atomic.Int64
}

// listToken is a list's identity (see List.token). It has a field so
// that distinct tokens are distinct allocations.
type listToken struct{ _ byte }

// assignID gives n its dense index on first link. Caller holds l.mu.
func (l *List) assignID(n *Node) {
	if n.id == 0 {
		if l.token == nil {
			l.token = new(listToken)
		}
		l.nextID++
		n.id = l.nextID
		n.home = l.token
	}
}

// Owns reports whether l assigned n's index: n is linked into l, or
// was until removed. An index is only meaningful to the list that
// assigned it; read against any other list it names an unrelated
// node.
func (l *List) Owns(n *Node) bool { return n.home != nil && n.home == l.token }

// IndexBound returns an exclusive upper bound on every node index this
// list has assigned (Node.Index values are in [1, IndexBound)).
func (l *List) IndexBound() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextID + 1
}

// Version returns the list's mutation counter. It increases on every
// structural mutation (Append/Insert*/Remove), on BumpVersion, and on
// Unit.Analyze (which rewrites node section attribution in place).
func (l *List) Version() int64 { return l.version.Load() }

// BumpVersion records a mutation the list cannot observe itself — an
// in-place edit of a node's instruction, directive or section — so
// cached layout state keyed on Version cannot go stale silently.
func (l *List) BumpVersion() { l.version.Add(1) }

// Front returns the first node or nil.
func (l *List) Front() *Node { return l.head }

// Back returns the last node or nil.
func (l *List) Back() *Node { return l.tail }

// Len returns the number of nodes.
func (l *List) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.len
}

// Append adds n at the end of the list and returns it.
func (l *List) Append(n *Node) *Node {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.assignID(n)
	l.version.Add(1)
	n.list = l
	n.prev = l.tail
	n.next = nil
	if l.tail != nil {
		l.tail.next = n
	} else {
		l.head = n
	}
	l.tail = n
	l.len++
	return n
}

// InsertAfter inserts n immediately after at and returns n. at must
// belong to this list.
func (l *List) InsertAfter(n, at *Node) *Node {
	if at.list != l {
		panic("ir: InsertAfter anchor not in list")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.assignID(n)
	l.version.Add(1)
	n.list = l
	n.prev = at
	n.next = at.next
	if at.next != nil {
		at.next.prev = n
	} else {
		l.tail = n
	}
	at.next = n
	n.Section = at.Section
	l.len++
	return n
}

// InsertBefore inserts n immediately before at and returns n. at must
// belong to this list.
func (l *List) InsertBefore(n, at *Node) *Node {
	if at.list != l {
		panic("ir: InsertBefore anchor not in list")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.assignID(n)
	l.version.Add(1)
	n.list = l
	n.next = at
	n.prev = at.prev
	if at.prev != nil {
		at.prev.next = n
	} else {
		l.head = n
	}
	at.prev = n
	n.Section = at.Section
	l.len++
	return n
}

// Remove unlinks n from the list. Its Next/Prev pointers are cleared;
// iteration in progress must capture the successor before removing.
func (l *List) Remove(n *Node) {
	if n.list != l {
		panic("ir: Remove of node not in list")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.version.Add(1)
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next, n.list = nil, nil, nil
	l.len--
}

// Nodes returns every node in order. The snapshot is safe to iterate
// while mutating the list.
func (l *List) Nodes() []*Node {
	out := make([]*Node, 0, l.Len())
	for n := l.head; n != nil; n = n.next {
		out = append(out, n)
	}
	return out
}
