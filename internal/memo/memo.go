// Package memo implements MAO's content-addressed, function-granular
// pipeline memo.
//
// The optimizer's hot path in a fleet is re-optimizing code it has
// seen moments ago: repeated requests for the same unit, archives
// whose members share functions, and editors re-submitting after a
// local change. The memo makes that path O(new work): every function
// of a unit is fingerprinted by content, and a unit whose functions
// all hit skips the pass pipeline entirely — the memoized optimized
// spans are re-parsed from their stored text and spliced in,
// byte-identical to a cold run.
//
// # What is memoized
//
// Only function-local pipelines: every invocation a ParallelSafe
// function pass, whose output for a function is a pure function of
// that function's span (internal/pass decides, and runs any other
// pipeline with no plan, lookup or fill). So the span content alone
// identifies a result, and different units share entries for
// identical functions.
//
// # Key derivation
//
// A function's key is sha256 over length-delimited fields, following
// the internal/cachekey conventions:
//
//   - the configuration salt: pass-catalog version, static-check
//     version, translation-validation version and the memo format
//     version, fixed at construction;
//   - the canonical pipeline spec;
//   - the span fingerprint: the span's section name, then every
//     node's rendered line, length-prefixed, and its source line
//     relative to the function's entry label.
//
// Invalidation is structural: a changed function, spec, or catalog
// version composes a different key, so stale entries are simply never
// found again and age out of the LRU.
//
// # Source lines
//
// Entries store each source-derived node's line relative to its
// function's entry label (synthesized nodes keep line 0), and Splice
// rebases them onto the unit in hand, so diagnostics and explain
// lineage after a hit name the request's own lines. Folding the
// relative lines into the span fingerprint keeps entries shared only
// between identically laid-out spans, where rebasing is exact.
//
// # Entries as text
//
// An entry stores a changed span as the lines of assembly its nodes
// render to — the text Fill already renders to fingerprint the span —
// plus, per node, its relative source line and an index into the
// span's distinct provenance records. It holds no IR: Splice parses
// the text back into fresh nodes (the printer/parser fixpoint the
// golden and fuzz tests pin makes that exact), rebases their lines
// and gives each its own provenance record, since passes stamp
// provenance in place. The text is one string copied per entry, so
// an entry never keeps the filling request's source text alive, and
// the memo retains about twice its entries' text (TestMemoFootprint).
//
// Splice parses every entry before it edits the unit. An entry that
// fails to parse, or parses into a different node count, leaves the
// unit untouched and counts the lookup as a miss; the caller then
// runs the pipeline cold, so a memo entry can never fail a request.
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
	"errors"
	"fmt"
	"hash"
	"slices"
	"sync"
	"sync/atomic"

	"mao/internal/asm"
	"mao/internal/ir"
	"mao/internal/lru"
)

// formatVersion is baked into every key; bump it when the entry
// layout or fingerprint composition changes incompatibly.
const formatVersion = "maomemo/4"

// ErrBadEntry is returned by Splice when a memoized span does not
// parse back into the nodes it was stored from. The unit is untouched
// and the caller runs the pipeline cold.
var ErrBadEntry = errors.New("memo: entry does not parse back")

// Memo is a bounded, content-addressed store of per-function pipeline
// results. It is safe for concurrent use; stored entries are
// immutable and parsed into fresh nodes on every splice.
type Memo struct {
	mu      sync.Mutex
	entries *lru.Cache[string, entry]
	salt    string

	hits, misses, stores, evictions, unmemoizable atomic.Uint64
}

// entry is one memoized function result. text is empty when the
// pipeline left the span byte-identical (the common fixpoint case):
// splicing such an entry is a no-op.
type entry struct {
	text  string          // the span's rendered lines, one per node
	nodes []nodeMeta      // per node of the span, in order
	provs []ir.Provenance // the span's distinct provenance records
}

// nodeMeta is what an entry keeps of one node besides its line of
// text.
type nodeMeta struct {
	line int32 // source line relative to the entry label (see relLine)
	prov int32 // 1 + index into entry.provs; 0 for a node with none
}

// provIndex returns pv's nodeMeta.prov value, appending *pv to provs
// when the span has not recorded it yet.
func provIndex(provs []ir.Provenance, pv *ir.Provenance) (int32, []ir.Provenance) {
	if pv == nil {
		return 0, provs
	}
	if i := slices.Index(provs, *pv); i >= 0 {
		return int32(i + 1), provs
	}
	provs = append(provs, *pv)
	return int32(len(provs)), provs
}

// parse returns fresh, unlinked nodes for a changed entry, their lines
// rebased onto an entry label at source line base, each with its own
// provenance record (passes stamp records in place).
func (e entry) parse(base int) ([]*ir.Node, error) {
	nodes, err := asm.ParseNodes("memo", e.text)
	if err != nil {
		return nil, err
	}
	if len(nodes) != len(e.nodes) {
		return nil, fmt.Errorf("%d nodes parsed, %d stored", len(nodes), len(e.nodes))
	}
	withProv := 0
	for _, md := range e.nodes {
		if md.prov != 0 {
			withProv++
		}
	}
	provs := make([]ir.Provenance, 0, withProv)
	for i, n := range nodes {
		md := e.nodes[i]
		n.Line = 0
		if md.line != 0 {
			n.Line = int(md.line) + base - 1
		}
		if md.prov != 0 {
			provs = append(provs, e.provs[md.prov-1])
			n.Prov = &provs[len(provs)-1]
		}
	}
	return nodes, nil
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
	buf := writeField(h, nil, formatVersion)
	fmt.Fprintf(h, "nver:%d:", len(versions))
	for _, v := range versions {
		buf = writeField(h, buf, v)
	}
	return &Memo{
		entries: lru.New[string, entry](maxEntries),
		salt:    hex.EncodeToString(h.Sum(nil)),
	}
}

// writeField writes one length-delimited field into h — an 8-byte
// little-endian length, then the bytes — so adjacent fields can never
// alias across boundaries (the internal/cachekey convention). buf is
// scratch space, returned for reuse: h gets the field in one Write,
// with no allocation once buf has room.
func writeField(h hash.Hash, buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(len(s)))
	buf = append(buf, s...)
	h.Write(buf)
	return buf
}

// nodeField renders n into buf (reused) as the field writeField would
// write for its line of assembly, followed by 8 bytes of rel, the
// node's span-relative source line. text is the line's field alone;
// full adds the relative line. Rendering allocates nothing once buf
// has room.
func nodeField(buf []byte, n *ir.Node, rel int) (text, full []byte) {
	buf = n.AppendTo(append(buf[:0], 0, 0, 0, 0, 0, 0, 0, 0))
	binary.LittleEndian.PutUint64(buf, uint64(len(buf)-8))
	k := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rel))
	return buf[:k], buf
}

// relLine maps a node's source line to its line relative to the entry
// label of its function, which sits at line base: 1 for the label's
// own line, 0 for a synthesized node (line 0). ok is false for a
// source line above the label, which has no relative form.
func relLine(line, base int) (rel int, ok bool) {
	if line == 0 {
		return 0, true
	}
	if line < base {
		return 0, false
	}
	return line - base + 1, true
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

// Plan holds the per-function keys of one unit under one pipeline
// configuration, computed by NewPlan before a run and consumed by
// Lookup (before) and Fill (after). A Plan is tied to the unit's
// current content; recompute it after any edit. A plan with no keys
// is inert: Lookup misses and Fill stores nothing, neither counting.
type Plan struct {
	memo    *Memo
	keys    []string
	fns     []*ir.Function
	spanFPs []string // input content fingerprint per span
	interFP string   // fingerprint of everything outside the spans
}

// Functions returns the number of functions the plan covers.
func (p *Plan) Functions() int { return len(p.fns) }

// NewPlan keys every function of u on the salt, the canonical
// pipeline spec and the function's span fingerprint, which is sound
// only for function-local pipelines (see the package doc). It returns
// nil when the unit has no recognized functions, or spans the memo
// cannot fingerprint — there is nothing to memoize.
//
// The local parameter is deprecated; pass true. A false local returns
// an inert plan, which Lookup misses and Fill ignores without
// counting. It stays for maoledger/replay.go, which passes false for
// the layout spec, until ROADMAP item 5 removes that replay.
func (m *Memo) NewPlan(u *ir.Unit, spec string, local bool) *Plan {
	if !local {
		return &Plan{memo: m}
	}
	fns := u.Functions()
	if len(fns) == 0 {
		return nil
	}
	spanFPs, interFP, ok := contentFingerprints(u, fns)
	if !ok {
		return nil
	}
	p := &Plan{memo: m, fns: fns, spanFPs: spanFPs, interFP: interFP}
	p.keys = make([]string, len(fns))
	var buf []byte
	for i := range fns {
		h := sha256.New()
		buf = writeField(h, buf, m.salt)
		buf = writeField(h, buf, spec)
		buf = writeField(h, buf, spanFPs[i])
		p.keys[i] = hex.EncodeToString(h.Sum(nil))
	}
	return p
}

// contentFingerprints walks the unit once, hashing every function span
// (its section, lines of assembly and relative source lines) and the
// interstitial content. ok is false when the function spans do not
// partition the list into the expected well-nested shape (overlapping
// or dangling spans), or when a span holds a source line above its
// entry label.
func contentFingerprints(u *ir.Unit, fns []*ir.Function) (spanFPs []string, interFP string, ok bool) {
	spanFPs = make([]string, len(fns))
	inter := sha256.New()
	var span hash.Hash
	var buf []byte
	base := 0
	fi := 0
	for n := u.List.Front(); n != nil; n = n.Next() {
		if span == nil && fi < len(fns) && n == fns[fi].EntryLabel() {
			span = sha256.New()
			buf = writeField(span, buf, fns[fi].SectionName)
			base = n.Line
		}
		if span != nil {
			rel, ok := relLine(n.Line, base)
			if !ok {
				return nil, "", false
			}
			_, buf = nodeField(buf, n, rel)
			span.Write(buf)
		} else {
			var text []byte
			text, buf = nodeField(buf, n, 0)
			inter.Write(text)
		}
		if span != nil && n == fns[fi].End() {
			spanFPs[fi] = hex.EncodeToString(span.Sum(nil))
			span = nil
			fi++
		}
	}
	if span != nil || fi != len(fns) {
		return nil, "", false // a span never closed or never opened
	}
	return spanFPs, hex.EncodeToString(inter.Sum(nil)), true
}

// Hit is a successful whole-unit lookup: one entry per function of
// the plan, ready to splice.
type Hit struct {
	plan    *Plan
	entries []entry
	spliced int
}

// Lookup probes every function key of the plan. It succeeds only when
// all functions hit — a partial hit cannot shortcut the pipeline, so
// it counts every function as a miss and returns false. A nil or
// inert plan misses without counting.
func (m *Memo) Lookup(p *Plan) (*Hit, bool) {
	if p == nil || len(p.keys) == 0 {
		return nil, false
	}
	h := &Hit{plan: p, entries: make([]entry, len(p.keys))}
	m.mu.Lock()
	for i, key := range p.keys {
		e, ok := m.entries.Get(key)
		if !ok {
			m.mu.Unlock()
			m.misses.Add(uint64(len(p.keys)))
			return nil, false
		}
		h.entries[i] = e
	}
	m.mu.Unlock()
	m.hits.Add(uint64(len(p.keys)))
	return h, true
}

// Splice replaces every changed function span of u with nodes parsed
// from the memoized text and re-analyzes the unit. u must be the unit
// the plan was computed from, unedited since. The nodes' source lines
// are rebased onto u's entry label, as a cold run of u would report
// them. It returns the number of spans spliced; zero means the unit
// was already at the pipeline's fixpoint and was not touched at all.
// Every entry is parsed before u is edited: if one does not parse back
// into its stored node count, u is left untouched, the lookup's hits
// are recounted as misses, and the error matches ErrBadEntry.
func (h *Hit) Splice(u *ir.Unit) (int, error) {
	spans := make([][]*ir.Node, len(h.entries))
	for i, e := range h.entries {
		if e.text == "" {
			continue
		}
		f := h.plan.fns[i]
		nodes, err := e.parse(f.EntryLabel().Line)
		if err != nil {
			m, n := h.plan.memo, uint64(len(h.entries))
			m.hits.Add(^(n - 1)) // subtract n
			m.misses.Add(n)
			return 0, fmt.Errorf("%w: function %s: %v", ErrBadEntry, f.Name, err)
		}
		spans[i] = nodes
	}
	for i, nodes := range spans {
		if nodes == nil {
			continue
		}
		f := h.plan.fns[i]
		start, end := f.EntryLabel(), f.End()
		for _, n := range nodes {
			u.List.InsertBefore(n, start)
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
// run left byte-identical are stored without text — splicing them is
// free. A changed span is stored as the text its fingerprint was
// computed from, with relative lines and provenance per node. A nil
// or inert plan stores nothing and counts nothing.
func (m *Memo) Fill(p *Plan, u *ir.Unit) bool {
	if p == nil || len(p.keys) == 0 {
		return false
	}
	fns := p.fns
	inter := sha256.New()
	var span hash.Hash
	var buf, text []byte
	var meta []nodeMeta
	var provs []ir.Provenance
	base := 0
	entries := make([]entry, 0, len(fns))
	fi := 0
	for n := u.List.Front(); n != nil; n = n.Next() {
		if span == nil && fi < len(fns) && n == fns[fi].EntryLabel() {
			span = sha256.New()
			buf = writeField(span, buf, fns[fi].SectionName)
			text, meta, provs = text[:0], meta[:0], provs[:0]
			base = n.Line
		}
		if span != nil {
			rel, ok := relLine(n.Line, base)
			if !ok {
				m.unmemoizable.Add(1)
				return false
			}
			var line []byte
			line, buf = nodeField(buf, n, rel)
			span.Write(buf)
			text = append(append(text, line[8:]...), '\n')
			md := nodeMeta{line: int32(rel)}
			md.prov, provs = provIndex(provs, n.Prov)
			meta = append(meta, md)
		} else {
			var line []byte
			line, buf = nodeField(buf, n, 0)
			inter.Write(line)
		}
		if span != nil && n == fns[fi].End() {
			var e entry
			if hex.EncodeToString(span.Sum(nil)) != p.spanFPs[fi] {
				e = entry{text: string(text), nodes: slices.Clone(meta)}
				if len(provs) > 0 {
					e.provs = slices.Clone(provs)
				}
			}
			entries = append(entries, e)
			span = nil
			fi++
		}
	}
	if span != nil || fi != len(fns) ||
		hex.EncodeToString(inter.Sum(nil)) != p.interFP {
		m.unmemoizable.Add(1)
		return false
	}
	for i, e := range entries {
		m.mu.Lock()
		evicted := m.entries.Add(p.keys[i], e)
		m.mu.Unlock()
		m.stores.Add(1)
		m.evictions.Add(uint64(evicted))
	}
	return true
}
