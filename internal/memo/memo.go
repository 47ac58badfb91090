// Package memo implements MAO's content-addressed, function-granular
// pipeline memo.
//
// The optimizer's hot path in a fleet is re-optimizing code it has
// seen moments ago: repeated requests for the same unit, archives
// whose members share functions, and editors re-submitting after a
// local change. The memo makes that path O(new work): every function
// of a unit is fingerprinted by content, and a unit whose functions
// all hit skips the pass pipeline entirely — the memoized optimized
// spans are spliced in as cloned IR, byte-identical to a cold run.
//
// # Key derivation
//
// A function's fingerprint is sha256 over length-delimited fields,
// following the internal/cachekey conventions:
//
//   - the canonical IR bytes of the function span (every node's
//     rendered line, length-prefixed) and its section name;
//   - the canonical pipeline spec;
//   - the configuration salt: pass-catalog version, static-check
//     version, translation-validation version and the memo format
//     version, fixed at construction.
//
// Two key modes exist, chosen by the caller per pipeline:
//
//   - local: the span content alone identifies the result. Sound only
//     for pipelines of ParallelSafe function passes, whose output for
//     a function is a pure function of that function's span. Local
//     keys let different units share entries for identical functions.
//   - unit: the whole unit's content is folded into every function's
//     key. Sound for any pipeline whose effects stay inside function
//     spans (alignment passes consult unit-wide layout, so a
//     function's optimized form depends on its neighbors).
//
// Invalidation is structural: a changed function, spec, or catalog
// version composes a different key, so stale entries are simply never
// found again and age out of the LRU.
//
// # Fill-time self-validation
//
// The memo never assumes a pipeline was span-confined: Fill re-walks
// the unit after the run and compares the interstitial content (every
// node outside a function span) against the pre-run plan. If a pass
// mutated anything between functions, nothing is stored and the run
// is counted unmemoizable. Entries are therefore only ever created
// for runs the splice path can reproduce exactly.
package memo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"sync"
	"sync/atomic"

	"mao/internal/ir"
	"mao/internal/lru"
)

// formatVersion is baked into every key; bump it when the entry
// layout or fingerprint composition changes incompatibly.
const formatVersion = "maomemo/1"

// Memo is a bounded, content-addressed store of per-function pipeline
// results. It is safe for concurrent use; stored spans are immutable
// and cloned on every splice.
type Memo struct {
	mu      sync.Mutex
	entries *lru.Cache[string, entry]
	salt    string

	hits, misses, stores, evictions, unmemoizable atomic.Uint64
}

// entry is one memoized function result. nodes is nil when the
// pipeline left the span byte-identical (the common fixpoint case):
// splicing such an entry is a no-op.
type entry struct {
	nodes     []*ir.Node
	identical bool
}

// New returns a memo bounded to maxEntries function entries (<= 0
// selects the 65536 default). The version strings — conventionally
// the pass-catalog, static-check and translation-validation versions
// — are folded length-delimited into every key, so results produced
// under a different configuration can never be returned.
func New(maxEntries int, versions ...string) *Memo {
	if maxEntries <= 0 {
		maxEntries = 65536
	}
	h := sha256.New()
	writeField(h, formatVersion)
	fmt.Fprintf(h, "nver:%d:", len(versions))
	for _, v := range versions {
		writeField(h, v)
	}
	return &Memo{
		entries: lru.New[string, entry](maxEntries),
		salt:    hex.EncodeToString(h.Sum(nil)),
	}
}

// writeField writes one length-delimited field into h, so adjacent
// fields can never alias across boundaries (the internal/cachekey
// convention).
func writeField(h hash.Hash, s string) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
	h.Write(n[:])
	h.Write([]byte(s))
}

// Metrics is a snapshot of the memo's counters.
type Metrics struct {
	Hits         uint64 // function probes answered from the memo
	Misses       uint64 // function probes that found no usable entry
	Stores       uint64 // entries written by Fill
	Evictions    uint64 // entries dropped by the LRU bound
	Unmemoizable uint64 // runs Fill refused (boundary or interstitial drift)
	Entries      int    // current entry count
}

// Metrics returns a counter snapshot.
func (m *Memo) Metrics() Metrics {
	m.mu.Lock()
	n := m.entries.Len()
	m.mu.Unlock()
	return Metrics{
		Hits:         m.hits.Load(),
		Misses:       m.misses.Load(),
		Stores:       m.stores.Load(),
		Evictions:    m.evictions.Load(),
		Unmemoizable: m.unmemoizable.Load(),
		Entries:      n,
	}
}

// Counters returns the hit and miss totals (function granularity).
func (m *Memo) Counters() (hits, misses uint64) {
	return m.hits.Load(), m.misses.Load()
}

// Len returns the current number of entries.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.entries.Len()
}

// CountHits adds n probe hits to the counters on behalf of a caller
// that short-circuited the content path (the pass manager's
// version-revalidation fast path answers repeat runs without
// recomputing fingerprints, but they are memo hits all the same).
func (m *Memo) CountHits(n int) { m.hits.Add(uint64(n)) }

// Plan holds the per-function fingerprints of one unit under one
// pipeline configuration, computed by NewPlan before a run and
// consumed by Lookup (before) and Fill (after). A Plan is tied to the
// unit's current content; recompute it after any edit.
type Plan struct {
	memo    *Memo
	keys    []string
	fns     []*ir.Function
	spanFPs []string // input content fingerprint per span
	interFP string   // fingerprint of everything outside the spans
}

// Functions returns the number of functions the plan covers.
func (p *Plan) Functions() int { return len(p.fns) }

// NewPlan fingerprints every function of u under the canonical
// pipeline spec. local selects span-content keys (sound only for
// pipelines of ParallelSafe function passes); otherwise the whole
// unit's content is folded into every key. It returns nil when the
// unit has no recognized functions — there is nothing to memoize.
func (m *Memo) NewPlan(u *ir.Unit, spec string, local bool) *Plan {
	fns := u.Functions()
	if len(fns) == 0 {
		return nil
	}
	spanFPs, interFP, unitFP, ok := contentFingerprints(u, fns, !local)
	if !ok {
		return nil
	}
	p := &Plan{memo: m, fns: fns, spanFPs: spanFPs, interFP: interFP}
	p.keys = make([]string, len(fns))
	for i, f := range fns {
		h := sha256.New()
		writeField(h, m.salt)
		writeField(h, spec)
		if local {
			writeField(h, "local")
			writeField(h, f.SectionName)
			writeField(h, spanFPs[i])
		} else {
			writeField(h, "unit")
			writeField(h, unitFP)
			writeField(h, f.Name)
		}
		p.keys[i] = hex.EncodeToString(h.Sum(nil))
	}
	return p
}

// contentFingerprints walks the unit once, hashing every function
// span, the interstitial content, and (when wantUnit) the whole unit.
// ok is false when the function spans do not partition the list into
// the expected well-nested shape (overlapping or dangling spans).
func contentFingerprints(u *ir.Unit, fns []*ir.Function, wantUnit bool) (spanFPs []string, interFP, unitFP string, ok bool) {
	spanFPs = make([]string, len(fns))
	inter := sha256.New()
	var unit hash.Hash
	if wantUnit {
		unit = sha256.New()
	}
	var span hash.Hash
	fi := 0
	for n := u.List.Front(); n != nil; n = n.Next() {
		if span == nil && fi < len(fns) && n == fns[fi].EntryLabel() {
			span = sha256.New()
			writeField(span, fns[fi].SectionName)
		}
		line := n.String()
		if span != nil {
			writeField(span, line)
		} else {
			writeField(inter, line)
		}
		if unit != nil {
			writeField(unit, line)
		}
		if span != nil && n == fns[fi].End() {
			spanFPs[fi] = hex.EncodeToString(span.Sum(nil))
			span = nil
			fi++
		}
	}
	if span != nil || fi != len(fns) {
		return nil, "", "", false // a span never closed or never opened
	}
	if unit != nil {
		unitFP = hex.EncodeToString(unit.Sum(nil))
	}
	return spanFPs, hex.EncodeToString(inter.Sum(nil)), unitFP, true
}

// Hit is a successful whole-unit lookup: one entry per function of
// the plan, ready to splice.
type Hit struct {
	plan    *Plan
	nodes   [][]*ir.Node // nil per function when the span is unchanged
	spliced int
}

// Lookup probes every function key of the plan. It succeeds only when
// all functions hit — a partial hit cannot shortcut the pipeline, so
// it counts every function as a miss and returns false.
func (m *Memo) Lookup(p *Plan) (*Hit, bool) {
	if p == nil {
		return nil, false
	}
	h := &Hit{plan: p, nodes: make([][]*ir.Node, len(p.keys))}
	m.mu.Lock()
	for i, key := range p.keys {
		e, ok := m.entries.Get(key)
		if !ok {
			m.mu.Unlock()
			m.misses.Add(uint64(len(p.keys)))
			return nil, false
		}
		if !e.identical {
			h.nodes[i] = e.nodes
		}
	}
	m.mu.Unlock()
	m.hits.Add(uint64(len(p.keys)))
	return h, true
}

// Splice replaces every changed function span of u with clones of the
// memoized optimized nodes and re-analyzes the unit. u must be the
// unit the plan was computed from, unedited since. It returns the
// number of spans spliced; zero means the unit was already at the
// pipeline's fixpoint and was not touched at all.
func (h *Hit) Splice(u *ir.Unit) (int, error) {
	for i, nodes := range h.nodes {
		if nodes == nil {
			continue
		}
		f := h.plan.fns[i]
		start, end := f.EntryLabel(), f.End()
		for _, n := range nodes {
			u.List.InsertBefore(n.Clone(), start)
		}
		for n := start; n != nil; {
			next := n.Next()
			u.List.Remove(n)
			if n == end {
				break
			}
			n = next
		}
		h.spliced++
	}
	if h.spliced > 0 {
		if err := u.Analyze(); err != nil {
			return h.spliced, err
		}
	}
	return h.spliced, nil
}

// Spliced returns how many spans Splice replaced.
func (h *Hit) Spliced() int { return h.spliced }

// Fill stores the unit's post-run spans under the plan's (pre-run)
// keys. It re-walks the unit, validating that every function boundary
// survived the run and that the interstitial content is untouched; on
// any drift nothing is stored and Fill reports false. Spans that the
// run left byte-identical are stored without nodes — splicing them is
// free.
func (m *Memo) Fill(p *Plan, u *ir.Unit) bool {
	if p == nil {
		return false
	}
	fns := p.fns
	inter := sha256.New()
	var span hash.Hash
	var spanNodes []*ir.Node
	type result struct {
		fp    string
		nodes []*ir.Node
	}
	results := make([]result, 0, len(fns))
	fi := 0
	for n := u.List.Front(); n != nil; n = n.Next() {
		if span == nil && fi < len(fns) && n == fns[fi].EntryLabel() {
			span = sha256.New()
			writeField(span, fns[fi].SectionName)
			spanNodes = spanNodes[:0]
		}
		if span != nil {
			writeField(span, n.String())
			spanNodes = append(spanNodes, n)
		} else {
			writeField(inter, n.String())
		}
		if span != nil && n == fns[fi].End() {
			results = append(results, result{
				fp:    hex.EncodeToString(span.Sum(nil)),
				nodes: append([]*ir.Node(nil), spanNodes...),
			})
			span = nil
			fi++
		}
	}
	if span != nil || fi != len(fns) ||
		hex.EncodeToString(inter.Sum(nil)) != p.interFP {
		m.unmemoizable.Add(1)
		return false
	}
	for i, r := range results {
		e := entry{identical: r.fp == p.spanFPs[i]}
		if !e.identical {
			e.nodes = make([]*ir.Node, len(r.nodes))
			for j, n := range r.nodes {
				e.nodes[j] = n.Clone()
			}
		}
		m.mu.Lock()
		evicted := m.entries.Add(p.keys[i], e)
		m.mu.Unlock()
		m.stores.Add(1)
		m.evictions.Add(uint64(evicted))
	}
	return true
}
