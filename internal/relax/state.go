package relax

import (
	"fmt"
	"math"

	"mao/internal/ir"
	"mao/internal/x86/encode"
)

// The fragment model, in brief (DESIGN.md §11 has the full argument):
//
// Each section is partitioned, in list order, into fragments — maximal
// runs of fixed-size nodes optionally ended by one size-variable tail
// (a relaxable jmp/jcc or an alignment directive). Labels are interior
// to fragments, stored as (label, offset) pairs; a label's address is
// its fragment's start plus that offset, so moving a fragment moves
// all its labels for free. Fixed-size nodes are sized once, when their
// fragment is (re)scanned; the fixpoint then sweeps fragments — a few
// integer operations each — instead of re-sizing nodes. Sizes are
// address-free: a position-dependent instruction (a call, a RIP-
// relative or symbolic reference) always takes its rel32/disp32 form.
//
// Correctness hinges on trajectory equivalence: alignment padding
// makes relaxation non-monotonic (growth upstream can shrink a pad
// downstream), so the fixpoint's intermediate states matter, not just
// its end point. Every State.Relax therefore resets the sticky
// force-long bits and replays the cold fixpoint exactly, round for
// round — round 1 guesses internal branches short, later rounds size
// each branch against the previous round's label addresses, and a long
// choice is sticky (grow-only, which bounds the rounds by the branch
// count). What makes the warm path fast is that each round is a
// fragment sweep. No bytes are produced: Layout.Bytes encodes a node
// on demand at the address and in the branch form the sweep settled.

const (
	tailNone uint8 = iota
	tailBranch
	tailAlign
)

// unknownAddr marks a section cursor no fragment has advanced yet
// (never a real address: sections start at Options.Base >= 0).
const unknownAddr = math.MinInt64

type labelRef struct {
	idx int   // index into State.labelNames et al.
	off int64 // offset of the label within its fragment
}

// frag is one fragment: frag.count nodes starting at frag.head, of
// which all but an optional tail have address-independent sizes.
type frag struct {
	sect  string
	sid   int // interned index of sect
	head  *ir.Node
	last  *ir.Node
	count int
	fixed int64 // byte size of the fixed-size run (tail excluded)
	start int64 // section-relative address, set by each sweep

	labels []labelRef

	tailKind     uint8
	tail         *ir.Node
	tailSym      string // branch target symbol
	tailOff      int64  // branch target addend (jmp sym+8)
	tailIdx      int    // interned index of tailSym, -1 if unseen at scan
	tailInternal bool   // unit.FindLabel(tailSym) != nil at scan time
	tailLong     int    // rel32 form length (5 jmp, 6 jcc)
	tailLen      int    // current size, set by each sweep
	alignBytes   int64  // alignment in bytes (tailAlign, parsed at scan)
	alignMax     int    // max padding, -1 unbounded (tailAlign)
	forceLong    bool   // sticky long bit, reset at every Relax

	dirty bool // content must be rescanned before the next fixpoint
	index int  // position in State.frags
}

// Metrics counts what a State did over its lifetime; cmd/maobench
// reports the fragment-reuse rate derived from them.
type Metrics struct {
	Relaxes    int64 // successful Relax calls
	FastPath   int64 // calls answered from the converged layout, no sweep
	FullBuilds int64 // full partitions (first call, or staleness detected)
	Rescans    int64 // incremental partial rescans
	Rounds     int64 // total fixpoint rounds swept
	FragsNew   int64 // fragments scanned and sized
	FragsKept  int64 // fragments carried across a Relax untouched
}

// ReuseRate returns the fraction of fragment-relaxations served by a
// carried-over fragment (0 when nothing ran).
func (m Metrics) ReuseRate() float64 {
	if m.FragsNew+m.FragsKept == 0 {
		return 0
	}
	return float64(m.FragsKept) / float64(m.FragsNew+m.FragsKept)
}

// State is reusable relaxation state: the fragment partition of one
// unit plus node-indexed offset and length tables. A zero-cost way
// to use it is through Options.State; passes get one on pass.Ctx.
//
// A State holds one unit at a time. Hold (or Relax of another unit)
// moves it to a new unit and drops everything it kept for the old one,
// so a long-lived state — one per service worker — never keeps a
// finished unit, or through its label and section names that unit's
// source text, reachable. Notifications about nodes of a unit the
// state does not hold return at once.
//
// Reuse protocol: a State tracks the unit's ir.List.Version. Callers
// that edit the unit through the pass.Ctx mutation helpers notify the
// state precisely (NodeInserted/NodeRemoved/NodeMutated), and the next
// Relax rescans only the touched fragments. Any edit the state was not
// told about — raw ir.List calls, Unit.Analyze, in-place instruction
// edits reported via ir.List.BumpVersion — leaves the notification
// count behind the version counter, and the next Relax falls back to a
// sound full rebuild. Layouts returned by Relax are views into the
// state and are invalidated by the next Relax or Hold call.
//
// A State is single-goroutine: share nothing, or give each worker its
// own (pass.Manager does).
type State struct {
	u    *ir.Unit
	base int64

	frags  []*frag
	fragOf []*frag // node index → owning fragment
	off    []int64 // node index → offset within fragment
	lenv   []int   // node index → encoded length

	labelIdx   map[string]int // name → index, reset by every full rebuild
	labelNames []string
	labelCur   []int64 // address this round
	labelPrev  []int64 // address previous round
	labelOwner []*frag // defining fragment; nil = not in the unit
	liveLabels int     // count of non-nil owners

	sectIdx   map[string]int // section name → index, reset with the label tables
	sectNames []string
	cursor    []int64 // section index → location counter, per sweep; unknownAddr = none yet

	layout      Layout
	valid       bool
	needRebuild bool
	anyDirty    bool
	baseVersion int64
	accounted   int64

	free    []*frag // recycled fragments
	scratch []*frag // double-buffer for the fragment list
	newly   []*frag // fragments produced by the current (re)scan

	metrics Metrics
}

// NewState returns an empty reusable relaxation state.
func NewState() *State {
	s := &State{
		labelIdx: make(map[string]int),
		sectIdx:  make(map[string]int),
	}
	s.layout.SectionEnd = make(map[string]int64)
	s.layout.s = s
	return s
}

// Metrics returns lifetime counters for this state.
func (s *State) Metrics() Metrics { return s.metrics }

// Hold makes u the unit the state serves. If the state held another
// unit, everything it kept for that unit is dropped first: fragments,
// node-indexed tables, label tables, section cursors. The next Relax
// of u is then a full build, and until it runs, notifications about
// u's nodes return at once. Holding the unit already held is free.
func (s *State) Hold(u *ir.Unit) {
	if s.u == u {
		return
	}
	for _, f := range s.frags {
		s.release(f)
	}
	s.frags = s.frags[:0]
	s.newly = s.newly[:0]
	clear(s.fragOf)
	s.fragOf, s.off, s.lenv = s.fragOf[:0], s.off[:0], s.lenv[:0]
	s.resetNames()
	clear(s.layout.SectionEnd)
	s.u = u
	s.valid = false
	s.needRebuild = false
	s.anyDirty = false
	s.accounted = 0
}

// holds reports whether n belongs to the unit the state has a valid
// partition of. Node indices are per list, so a node of any other
// unit must not be looked up in the node-indexed tables.
func (s *State) holds(n *ir.Node) bool {
	return s != nil && s.valid && s.u.List.Owns(n)
}

// fragAt returns the fragment owning n, or nil when the layout does
// not cover n (unlinked, foreign or never-scanned nodes).
func (s *State) fragAt(n *ir.Node) *frag {
	if n == nil || !n.InList() {
		return nil
	}
	id := n.Index()
	if id <= 0 || id >= len(s.fragOf) {
		return nil
	}
	return s.fragOf[id]
}

// symAddr resolves a live label to its current address.
func (s *State) symAddr(sym string) (int64, bool) {
	idx, ok := s.labelIdx[sym]
	if !ok || s.labelOwner[idx] == nil {
		return 0, false
	}
	return s.labelCur[idx], true
}

// NodeInserted notifies the state that n was just linked into the
// unit's list; the surrounding fragment is rescanned on the next
// Relax. Precise notification is an optimization, never a soundness
// requirement — unnotified edits are caught by version accounting.
func (s *State) NodeInserted(n *ir.Node) {
	if !s.holds(n) {
		return
	}
	s.accounted++
	p := n.Prev()
	for p != nil && s.ownerOf(p) == nil {
		p = p.Prev() // skip over other not-yet-scanned insertions
	}
	if p == nil {
		if len(s.frags) == 0 {
			s.needRebuild = true
			return
		}
		s.markDirty(s.frags[0])
		return
	}
	s.markDirty(s.ownerOf(p))
}

// NodeRemoved notifies the state that n was just unlinked.
func (s *State) NodeRemoved(n *ir.Node) {
	if !s.holds(n) {
		return
	}
	s.accounted++
	f := s.ownerOf(n)
	if f == nil {
		s.needRebuild = true
		return
	}
	s.markDirty(f)
}

// NodeMutated notifies the state that n's content changed in place
// (after ir.List.BumpVersion); its fragment is rescanned.
func (s *State) NodeMutated(n *ir.Node) {
	if !s.holds(n) {
		return
	}
	s.accounted++
	f := s.ownerOf(n)
	if f == nil {
		s.needRebuild = true
		return
	}
	s.markDirty(f)
}

// ownerOf is fragAt without the linked check (removal notifications
// arrive after the unlink).
func (s *State) ownerOf(n *ir.Node) *frag {
	id := n.Index()
	if id <= 0 || id >= len(s.fragOf) {
		return nil
	}
	return s.fragOf[id]
}

func (s *State) markDirty(f *frag) {
	f.dirty = true
	s.anyDirty = true
}

// Relax computes the layout of u, reusing as much of the previous
// call's work as the edits since then allow.
func (s *State) Relax(u *ir.Unit, opts *Options) (*Layout, error) {
	var o Options
	if opts != nil {
		o = *opts
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 100
	}
	s.Hold(u)

	version := u.List.Version()
	switch {
	case !s.valid || s.needRebuild || s.base != o.Base ||
		version != s.baseVersion+s.accounted:
		if err := s.rebuild(o.Base); err != nil {
			s.valid = false
			return nil, err
		}
	case !s.anyDirty:
		// Converged and untouched: the previous layout still holds.
		s.metrics.FastPath++
		s.metrics.FragsKept += int64(len(s.frags))
		return &s.layout, nil
	default:
		if err := s.rescanDirty(); err != nil {
			s.valid = false
			return nil, err
		}
	}

	// Replay the cold trajectory: reset stickiness so the warm fixpoint
	// makes exactly the decisions a from-scratch relaxation would.
	for _, f := range s.frags {
		f.forceLong = false
	}

	rounds := 0
	for {
		rounds++
		if rounds > o.MaxIterations {
			s.valid = false
			return nil, fmt.Errorf("relax: no fixpoint after %d iterations", o.MaxIterations)
		}
		if s.sweep(rounds) {
			break
		}
	}
	s.layout.Iterations = rounds
	s.metrics.Rounds += int64(rounds)

	clear(s.layout.SectionEnd)
	for i, end := range s.cursor {
		if end != unknownAddr {
			s.layout.SectionEnd[s.sectNames[i]] = end
		}
	}

	s.valid = true
	s.baseVersion = u.List.Version()
	s.accounted = 0
	s.metrics.Relaxes++
	return &s.layout, nil
}

// rebuild partitions the held unit from scratch (first call, new
// unit, changed base, or an edit the state was not notified about).
// The label tables start over too, so they hold only labels of the
// current partition and of rescans since.
func (s *State) rebuild(base int64) error {
	s.metrics.FullBuilds++
	u := s.u
	s.base = base
	s.needRebuild = false
	s.anyDirty = false

	for _, f := range s.frags {
		s.release(f)
	}
	s.frags = s.frags[:0]
	s.newly = s.newly[:0]
	s.resetNames()
	s.grow(u.List.IndexBound())
	for i := range s.fragOf {
		s.fragOf[i] = nil
	}

	out, err := s.scanRange(u.List.Front(), nil, s.frags)
	if err != nil {
		return err
	}
	s.frags = out
	s.finishScan()
	return nil
}

// rescanDirty re-partitions every run of dirty fragments, reusing the
// clean ones. Region boundaries need no repair: a fragment boundary is
// semantically free anywhere except that a tail must end its fragment,
// which scanRange guarantees for any range.
func (s *State) rescanDirty() error {
	s.metrics.Rescans++
	old := s.frags
	out := s.scratch[:0]
	s.newly = s.newly[:0]
	var err error
	for i := 0; i < len(old); {
		f := old[i]
		if !f.dirty {
			out = append(out, f)
			s.metrics.FragsKept++
			i++
			continue
		}
		// Maximal dirty run [i, j).
		j := i
		for j < len(old) && old[j].dirty {
			s.disown(old[j])
			j++
		}
		// The region spans from the end of the last clean fragment (its
		// last node is intact — otherwise it would be dirty) to the head
		// of the next clean one.
		start := s.u.List.Front()
		if len(out) > 0 {
			start = out[len(out)-1].last.Next()
		}
		var end *ir.Node
		if j < len(old) {
			end = old[j].head
		}
		out, err = s.scanRange(start, end, out)
		if err != nil {
			return err
		}
		i = j
	}
	s.scratch = s.frags[:0]
	s.frags = out
	s.anyDirty = false
	s.finishScan()
	return nil
}

// finishScan resolves branch-target indices for freshly scanned
// fragments (targets may be interned later than the branch during one
// scan) and renumbers the fragment list.
func (s *State) finishScan() {
	for _, f := range s.newly {
		if f.tailKind == tailBranch {
			f.tailIdx = -1
			if idx, ok := s.labelIdx[f.tailSym]; ok {
				f.tailIdx = idx
			}
		}
	}
	s.metrics.FragsNew += int64(len(s.newly))
	s.newly = s.newly[:0]
	for i, f := range s.frags {
		f.index = i
	}
}

// scanRange partitions the node range [start, end) into fragments
// appended to dst: fixed-size nodes are sized and accumulated, labels
// interned at their offsets, and a relaxable branch or alignment
// directive closes the open fragment as its tail.
func (s *State) scanRange(start, end *ir.Node, dst []*frag) ([]*frag, error) {
	var f *frag
	closeOpen := func() {
		if f == nil {
			return
		}
		if f.count == 0 {
			s.release(f)
		} else {
			dst = append(dst, f)
			s.newly = append(s.newly, f)
		}
		f = nil
	}
	for n := start; n != end; n = n.Next() {
		s.grow(n.Index() + 1)
		if f == nil || n.Section != f.sect {
			closeOpen()
			f = s.acquire()
			f.sect = n.Section
			f.sid = s.internSect(n.Section)
			f.head = n
		}
		id := n.Index()
		s.fragOf[id] = f
		s.off[id] = f.fixed
		s.lenv[id] = 0
		f.last = n
		f.count++

		switch n.Kind {
		case ir.NodeLabel:
			idx := s.intern(n.Label)
			if s.labelOwner[idx] == nil {
				s.liveLabels++
			}
			s.labelOwner[idx] = f
			f.labels = append(f.labels, labelRef{idx: idx, off: f.fixed})

		case ir.NodeDirective:
			if align, ok := n.IsAlignDirective(); ok {
				f.tailKind = tailAlign
				f.tail = n
				f.tailLen = 0
				// The directive's parameters are parsed once here; the
				// sweep recomputes only the address-dependent padding.
				f.alignBytes = int64(align)
				f.alignMax = n.AlignMax()
				closeOpen()
				continue
			}
			size, err := directiveSize(n, 0)
			if err != nil {
				return dst, nodeErr(s.u, n, err)
			}
			s.lenv[id] = size
			f.fixed += int64(size)

		case ir.NodeInst:
			if sym, ok := relaxTarget(n.Inst); ok {
				// With no symbol resolved the encoder picks the rel32
				// form, so this is the branch's long length.
				long, err := encode.Length(n.Inst, nil)
				if err != nil {
					return dst, nodeErr(s.u, n, err)
				}
				f.tailKind = tailBranch
				f.tail = n
				f.tailSym = sym
				f.tailOff = n.Inst.Args[0].Off
				f.tailInternal = s.u.FindLabel(sym) != nil
				f.tailLong = long
				f.tailLen = 0
				closeOpen()
				continue
			}
			size, err := encode.Length(n.Inst, nil)
			if err != nil {
				return dst, nodeErr(s.u, n, err)
			}
			s.lenv[id] = size
			f.fixed += int64(size)
		}
	}
	closeOpen()
	return dst, nil
}

// sweep runs one fixpoint round over the fragment list: assign
// fragment starts per section, update label addresses, size tails.
// It mirrors one full walk of the reference implementation exactly —
// tail decisions read the previous round's label addresses — and
// returns whether the round was stable.
func (s *State) sweep(round int) (stable bool) {
	grew := false
	moved := false
	copy(s.labelPrev, s.labelCur)
	for i := range s.cursor {
		s.cursor[i] = unknownAddr
	}
	for _, f := range s.frags {
		cur := s.cursor[f.sid]
		if cur == unknownAddr {
			cur = s.base
		}
		f.start = cur
		for _, lr := range f.labels {
			if a := cur + lr.off; s.labelCur[lr.idx] != a {
				s.labelCur[lr.idx] = a
				moved = true
			}
		}
		cur += f.fixed
		switch f.tailKind {
		case tailAlign:
			pad := int((f.alignBytes - cur%f.alignBytes) % f.alignBytes)
			if f.alignMax >= 0 && pad > f.alignMax {
				pad = 0
			}
			if pad != f.tailLen {
				f.tailLen = pad
				s.lenv[f.tail.Index()] = pad
			}
			cur += int64(pad)
		case tailBranch:
			size := s.fit(f, cur, round, &grew)
			if size != f.tailLen {
				f.tailLen = size
				s.lenv[f.tail.Index()] = size
			}
			cur += int64(size)
		}
		s.cursor[f.sid] = cur
	}
	if round == 1 {
		// The reference's first iteration starts from an empty label
		// map, so it is stable only for label-free units.
		return !grew && s.liveLabels == 0
	}
	return !grew && !moved
}

// fit sizes one relaxable branch for this round, replicating the
// reference decision procedure: sticky long; short-guess while an
// internal target is unknown; otherwise rel8 fit against the previous
// round's label address, growing sticky-long on failure.
func (s *State) fit(f *frag, addr int64, round int, grew *bool) int {
	if f.forceLong {
		return f.tailLong
	}
	if round >= 2 && f.tailIdx >= 0 && s.labelOwner[f.tailIdx] != nil {
		target := s.labelPrev[f.tailIdx] + f.tailOff
		if rel := target - (addr + 2); rel >= -128 && rel <= 127 {
			return 2
		}
	} else if f.tailInternal {
		return 2
	}
	f.forceLong = true
	*grew = true
	return f.tailLong
}

// resetNames empties the label and section tables, keeping their
// storage.
func (s *State) resetNames() {
	clear(s.sectIdx)
	clear(s.sectNames)
	s.sectNames = s.sectNames[:0]
	s.cursor = s.cursor[:0]
	clear(s.labelIdx)
	clear(s.labelNames)
	clear(s.labelOwner)
	s.labelNames = s.labelNames[:0]
	s.labelCur = s.labelCur[:0]
	s.labelPrev = s.labelPrev[:0]
	s.labelOwner = s.labelOwner[:0]
	s.liveLabels = 0
}

// intern returns the dense index of a label name, growing the label
// tables on first sight.
func (s *State) intern(name string) int {
	if idx, ok := s.labelIdx[name]; ok {
		return idx
	}
	idx := len(s.labelNames)
	s.labelIdx[name] = idx
	s.labelNames = append(s.labelNames, name)
	s.labelCur = append(s.labelCur, 0)
	s.labelPrev = append(s.labelPrev, 0)
	s.labelOwner = append(s.labelOwner, nil)
	return idx
}

// internSect returns the dense index of a section name, growing the
// section tables on first sight. A fragment interns its section once
// at scan, so each sweep indexes the cursors instead of hashing names.
func (s *State) internSect(name string) int {
	if idx, ok := s.sectIdx[name]; ok {
		return idx
	}
	idx := len(s.sectNames)
	s.sectIdx[name] = idx
	s.sectNames = append(s.sectNames, name)
	s.cursor = append(s.cursor, unknownAddr)
	return idx
}

// disown releases a fragment's label ownership and recycles it.
func (s *State) disown(f *frag) {
	for _, lr := range f.labels {
		if s.labelOwner[lr.idx] == f {
			s.labelOwner[lr.idx] = nil
			s.liveLabels--
		}
	}
	s.release(f)
}

// grow extends the node-indexed tables to cover indices < bound.
func (s *State) grow(bound int) {
	for len(s.fragOf) < bound {
		s.fragOf = append(s.fragOf, nil)
		s.off = append(s.off, 0)
		s.lenv = append(s.lenv, 0)
	}
}

func (s *State) acquire() *frag {
	if n := len(s.free); n > 0 {
		f := s.free[n-1]
		s.free = s.free[:n-1]
		return f
	}
	return new(frag)
}

// release recycles f. Every node and string it referenced is cleared,
// backing arrays included: a recycled fragment keeps nothing of the
// unit it described reachable.
func (s *State) release(f *frag) {
	f.sect = ""
	f.head, f.last, f.tail = nil, nil, nil
	f.count = 0
	f.fixed = 0
	f.labels = f.labels[:0]
	f.tailKind = tailNone
	f.tailSym = ""
	f.tailOff = 0
	f.tailIdx = -1
	f.tailInternal = false
	f.alignBytes = 0
	f.alignMax = 0
	f.forceLong = false
	f.dirty = false
	s.free = append(s.free, f)
}
