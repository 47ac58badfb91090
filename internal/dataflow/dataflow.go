// Package dataflow implements the register-level data-flow analyses
// MAO offers its passes: liveness and reaching definitions, plus
// bit-precise condition-code liveness. There is no alias or points-to
// analysis — as in the original system, memory is modeled as a single
// location and calls as conservative barriers, which is enough to
// solve most problems passes encounter on compiler-generated assembly.
package dataflow

import (
	"math/bits"

	"mao/internal/cfg"
	"mao/internal/ir"
	"mao/internal/x86"
	"mao/internal/x86/sidefx"
)

// RegSet is a bit set over register families: bits 0–15 are the GPR
// families rax..r15, bits 16–31 are xmm0..xmm15.
type RegSet uint64

const allRegs RegSet = 0xFFFFFFFF

func regBit(r x86.Reg) (int, bool) {
	f := r.Family()
	switch {
	case f >= x86.RAX && f <= x86.R15:
		return int(f - x86.RAX), true
	case f.IsXMM():
		return 16 + f.Num(), true
	}
	return 0, false
}

// Add inserts the family of r into the set.
func (s *RegSet) Add(r x86.Reg) {
	if b, ok := regBit(r); ok {
		*s |= 1 << b
	}
}

// Remove deletes the family of r from the set.
func (s *RegSet) Remove(r x86.Reg) {
	if b, ok := regBit(r); ok {
		*s &^= 1 << b
	}
}

// Has reports whether the family of r is in the set.
func (s RegSet) Has(r x86.Reg) bool {
	b, ok := regBit(r)
	return ok && s&(1<<b) != 0
}

// Union returns s ∪ t.
func (s RegSet) Union(t RegSet) RegSet { return s | t }

// DefUse is the data-flow view of one instruction: the register
// families and flag bits it uses and defines.
type DefUse struct {
	Uses RegSet
	Defs RegSet

	FlagUses x86.Flags
	FlagDefs x86.Flags // set or clobbered (undefined counts as a def)

	MemUse  bool
	MemDef  bool
	Barrier bool
}

// InstDefUse computes the def/use sets of an instruction from the
// side-effect tables. It does not allocate: the registers resolve into
// stack buffers with room for any instruction the tables describe.
func InstDefUse(in *x86.Inst) DefUse {
	var reads [16]x86.Reg
	var writes [8]x86.Reg
	e := sidefx.AppendEffects(in, reads[:0], writes[:0])
	var d DefUse
	for _, r := range e.RegsRead {
		d.Uses.Add(r)
	}
	for _, r := range e.RegsWritten {
		d.Defs.Add(r)
	}
	d.FlagUses = e.FlagsRead
	d.FlagDefs = e.FlagsSet | e.FlagsUndef
	d.MemUse = e.MemRead
	d.MemDef = e.MemWrite
	d.Barrier = e.Barrier
	if d.Barrier {
		// Calls and returns conservatively use and define every
		// register and all of memory. Flags, however, are dead across
		// calls under the System V ABI: the callee neither reads nor
		// preserves the caller's flags, so a barrier clobbers them.
		d.Uses = allRegs
		d.Defs = allRegs
		d.MemUse, d.MemDef = true, true
		d.FlagDefs = x86.AllFlags
	}

	// A sub-64-bit write does not fully define its family (the upper
	// bits survive), except that 32-bit writes zero-extend. For
	// liveness, a partial def must not kill the family; drop partial
	// defs from Defs but keep them as uses of the old value.
	if len(in.Args) > 0 && !d.Barrier {
		for _, r := range e.RegsWritten {
			if r.IsGPR() && (r.Width() == x86.W8 || r.Width() == x86.W16) {
				d.Uses.Add(r) // merge with surviving upper bits
			}
		}
	}
	return d
}

// Liveness holds per-node live-out register and flag sets for one
// function CFG, in slices indexed by the graph's build positions
// (cfg.Graph.InstPos).
type Liveness struct {
	g *cfg.Graph
	// out holds each placed instruction's live-out sets; nil for a
	// LiveBlocks result.
	out    []liveSets
	blocks []blockFlow
}

type liveSets struct {
	regs  RegSet
	flags x86.Flags
}

// blockFlow is one block's composite transfer and its solved live-in
// sets: live-in = (live-out &^ kill) | gen.
type blockFlow struct {
	killR, genR, inR RegSet
	killF, genF, inF x86.Flags
}

// Live computes backward liveness over g. Values possibly live on
// function exit (return registers, callee-saved restores) are handled
// by treating ret as a barrier that uses everything.
//
// The fixpoint runs on per-block composite transfers — one (kill,
// gen) pair per block, precomputed from the per-instruction def/use
// sets — so each iteration is a handful of mask operations per block.
// The per-node live-out sets are filled in by one final backward walk.
// Whatever the function's size, the analysis makes a fixed number of
// allocations.
func Live(g *cfg.Graph) *Liveness { return live(g, true) }

// LiveBlocks computes liveness at block boundaries only: BlockLiveIn
// and BlockFlagsIn are exact, but the per-node LiveOut/FlagsLiveOut
// sets are not filled and answer conservatively (everything live).
// Callers that never ask per-node questions — the verifier compares
// states at cut points, which are block boundaries — skip the final
// materialization walk, the dominant cost on large functions.
func LiveBlocks(g *cfg.Graph) *Liveness { return live(g, false) }

func live(g *cfg.Graph, fillNodes bool) *Liveness {
	l := &Liveness{g: g, blocks: make([]blockFlow, len(g.Blocks))}

	// Per-inst def/use, resolved once (kept in du, in block order, when
	// the final walk needs it), and the per-block composition.
	// Prepending instruction f (live = live&^Defs | Uses) to composite
	// T gives kill' = kill | Defs, gen' = (gen &^ Defs) | Uses.
	var du []DefUse
	if fillNodes {
		n := 0
		for _, b := range g.Blocks {
			n += len(b.Insts)
		}
		du = make([]DefUse, n)
		l.out = make([]liveSets, g.NumInsts())
	}
	off := 0
	for i, b := range g.Blocks {
		f := &l.blocks[i]
		for j := len(b.Insts) - 1; j >= 0; j-- {
			d := InstDefUse(b.Insts[j].Inst)
			if fillNodes {
				du[off+j] = d
			}
			f.killR |= d.Defs
			f.genR = f.genR&^d.Defs | d.Uses
			f.killF |= d.FlagDefs
			f.genF = f.genF&^d.FlagDefs | d.FlagUses
		}
		off += len(b.Insts)
	}

	for changed := true; changed; {
		changed = false
		for i := len(g.Blocks) - 1; i >= 0; i-- {
			f := &l.blocks[i]
			live, flags := l.exit(g.Blocks[i])
			live = live&^f.killR | f.genR
			flags = flags&^f.killF | f.genF
			if live != f.inR || flags != f.inF {
				f.inR, f.inF = live, flags
				changed = true
			}
		}
	}
	if !fillNodes {
		return l
	}

	// Final walk: materialize per-node live-out from the solved block
	// boundaries.
	off = 0
	for _, b := range g.Blocks {
		live, flags := l.exit(b)
		for j := len(b.Insts) - 1; j >= 0; j-- {
			if p := g.InstPos(b.Insts[j]); p >= 0 {
				l.out[p] = liveSets{live, flags}
			}
			d := &du[off+j]
			live = live&^d.Defs | d.Uses
			flags = flags&^d.FlagDefs | d.FlagUses
		}
		off += len(b.Insts)
	}
	return l
}

// exit returns what is live on leaving b: the union of its successors'
// live-in sets, or everything after an unresolved indirect branch,
// which can reach anywhere.
func (l *Liveness) exit(b *cfg.BasicBlock) (RegSet, x86.Flags) {
	if term := b.Terminator(); term != nil && term.IsIndirectBranch() && len(b.Succs) == 0 {
		return allRegs, x86.AllFlags
	}
	var live RegSet
	var flags x86.Flags
	for _, s := range b.Succs {
		live |= l.blocks[s.Index].inR
		flags |= l.blocks[s.Index].inF
	}
	return live, flags
}

// LiveOut returns the registers live immediately after n. On a
// LiveBlocks result it answers conservatively: everything live.
func (l *Liveness) LiveOut(n *ir.Node) RegSet {
	if l.out == nil {
		return allRegs
	}
	if p := l.g.InstPos(n); p >= 0 {
		return l.out[p].regs
	}
	return 0
}

// FlagsLiveOut returns the flag bits live immediately after n. On a
// LiveBlocks result it answers conservatively: all flags live.
func (l *Liveness) FlagsLiveOut(n *ir.Node) x86.Flags {
	if l.out == nil {
		return x86.AllFlags
	}
	if p := l.g.InstPos(n); p >= 0 {
		return l.out[p].flags
	}
	return 0
}

// BlockLiveIn returns the registers live on entry to block b. For the
// entry block this is the set of registers some path may read before
// writing.
func (l *Liveness) BlockLiveIn(b *cfg.BasicBlock) RegSet {
	if b.Index >= len(l.blocks) {
		return 0
	}
	return l.blocks[b.Index].inR
}

// BlockFlagsIn returns the flag bits live on entry to block b. For the
// entry block a non-empty set means some path reads condition codes the
// function never defined — an invariant the static checker enforces.
func (l *Liveness) BlockFlagsIn(b *cfg.BasicBlock) x86.Flags {
	if b.Index >= len(l.blocks) {
		return 0
	}
	return l.blocks[b.Index].inF
}

// bitvec is a packed bit vector over definition-site indices.
type bitvec []uint64

func (v bitvec) set(i int)      { v[i/64] |= 1 << (i % 64) }
func (v bitvec) has(i int) bool { return v[i/64]&(1<<(i%64)) != 0 }

// or merges src into v, reporting change.
func (v bitvec) or(src bitvec) bool {
	changed := false
	for i, w := range src {
		if v[i]|w != v[i] {
			v[i] |= w
			changed = true
		}
	}
	return changed
}

// andNot removes src's bits from v.
func (v bitvec) andNot(src bitvec) {
	for i, w := range src {
		v[i] &^= w
	}
}

// ReachingDefs answers which definitions may reach each instruction of
// one function CFG. It keeps only block-level state: each block's
// out-set, and each instruction's place among the definitions; a query
// replays the instruction's block prefix from the block's in-set.
type ReachingDefs struct {
	g *cfg.Graph
	// defs are the definition sites in block order; block b's are
	// defs[first[b]:first[b+1]].
	defs  []defSite
	first []int32
	// before holds, per build position, how many definition sites
	// precede the instruction: its def index, if it defines.
	before []int32
	words  int    // bitvec length over defs
	out    bitvec // block i's out-set is out[i*words:(i+1)*words]
	kills  bitvec // kill set k is kills[k*words:(k+1)*words]
}

type defSite struct {
	node *ir.Node
	regs RegSet // families defined
	kill int32  // the kill set of regs
}

// Reach computes reaching definitions over g. Barriers (calls) define
// every register, so definitions never flow across them. A definition
// is killed by a later one only when the later one writes every family
// it writes. Whatever the function's size, the analysis makes a fixed
// number of allocations.
func Reach(g *cfg.Graph) *ReachingDefs {
	nb := len(g.Blocks)
	n := 0
	for _, b := range g.Blocks {
		n += len(b.Insts)
	}
	counts := make([]int32, g.NumInsts()+nb+1)
	r := &ReachingDefs{
		g:      g,
		defs:   make([]defSite, 0, n),
		before: counts[:g.NumInsts()],
		first:  counts[g.NumInsts():],
	}

	// Enumerate definition sites, numbering the distinct register sets
	// they define: each set's kill mask is computed once.
	sets := killSets{sets: make([]RegSet, 0, 32)}
	for i, b := range g.Blocks {
		r.first[i] = int32(len(r.defs))
		for _, m := range b.Insts {
			if p := g.InstPos(m); p >= 0 {
				r.before[p] = int32(len(r.defs))
			}
			if d := InstDefUse(m.Inst); d.Defs != 0 {
				r.defs = append(r.defs, defSite{m, d.Defs, sets.id(d.Defs)})
			}
		}
	}
	r.first[nb] = int32(len(r.defs))

	// One slab: the blocks' out-sets, then the kill masks. Kill set k
	// holds every def whose families all lie in set k.
	w := (len(r.defs) + 63) / 64
	r.words = w
	slab := make(bitvec, (nb+len(sets.sets)+1)*w)
	r.out, r.kills = slab[:nb*w], slab[nb*w:(nb+len(sets.sets))*w]
	for k, s := range sets.sets {
		mask := r.kills[k*w : (k+1)*w]
		for i := range r.defs {
			if r.defs[i].regs&^s == 0 {
				mask.set(i)
			}
		}
	}

	in := slab[(nb+len(sets.sets))*w:]
	for changed := true; changed; {
		changed = false
		for i, b := range g.Blocks {
			r.in(b, in)
			r.replay(in, int(r.first[i]), int(r.first[i+1]))
			if r.out[i*w : (i+1)*w].or(in) {
				changed = true
			}
		}
	}
	return r
}

// in sets v to the union of b's predecessors' out-sets.
func (r *ReachingDefs) in(b *cfg.BasicBlock, v bitvec) {
	clear(v)
	for _, p := range b.Preds {
		v.or(r.out[p.Index*r.words : (p.Index+1)*r.words])
	}
}

// replay applies definition sites lo..hi-1, in order, to v.
func (r *ReachingDefs) replay(v bitvec, lo, hi int) {
	for d := lo; d < hi; d++ {
		k := int(r.defs[d].kill)
		v.andNot(r.kills[k*r.words : (k+1)*r.words])
		v.set(d)
	}
}

// killSets numbers the distinct register sets definitions write.
type killSets struct {
	sets []RegSet
	one  [32]int32 // 1 + the number of the one-family set {bit}, or 0
}

func (k *killSets) id(s RegSet) int32 {
	if s&(s-1) == 0 {
		b := bits.TrailingZeros64(uint64(s))
		if k.one[b] == 0 {
			k.sets = append(k.sets, s)
			k.one[b] = int32(len(k.sets))
		}
		return k.one[b] - 1
	}
	for i, t := range k.sets {
		if t == s {
			return int32(i)
		}
	}
	k.sets = append(k.sets, s)
	return int32(len(k.sets) - 1)
}

// DefsReaching returns the definition sites of reg that may reach the
// use at n.
func (r *ReachingDefs) DefsReaching(n *ir.Node, reg x86.Reg) []*ir.Node {
	p := r.g.InstPos(n)
	if p < 0 {
		return nil
	}
	b := r.g.BlockOf(n)
	in := make(bitvec, r.words)
	r.in(b, in)
	r.replay(in, int(r.first[b.Index]), int(r.before[p]))
	var out []*ir.Node
	var want RegSet
	want.Add(reg)
	for i := range r.defs {
		if in.has(i) && r.defs[i].regs&want != 0 {
			out = append(out, r.defs[i].node)
		}
	}
	return out
}

// UniqueDefReaching returns the single definition of reg reaching n,
// or nil when there are zero or several.
func (r *ReachingDefs) UniqueDefReaching(n *ir.Node, reg x86.Reg) *ir.Node {
	ds := r.DefsReaching(n, reg)
	if len(ds) == 1 {
		return ds[0]
	}
	return nil
}
