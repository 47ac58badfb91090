package dataflow_test

// The map-based CFG walk, liveness and reaching definitions the slab
// analyses replaced, kept as the reference the differential test
// (differential_test.go) compares them against, as relax.Reference is
// kept for incremental relaxation. Every table here is keyed on
// *ir.Node, every instruction's reaching set is a cloned bit vector,
// and nothing is shared with the code under test except the
// side-effect tables.

import (
	"mao/internal/dataflow"
	"mao/internal/ir"
	"mao/internal/x86"
	"mao/internal/x86/sidefx"
)

const refAllRegs dataflow.RegSet = 0xFFFFFFFF

// refInstDefUse folds sidefx.InstEffects into masks.
func refInstDefUse(in *x86.Inst) dataflow.DefUse {
	e := sidefx.InstEffects(in)
	var d dataflow.DefUse
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
		d.Uses = refAllRegs
		d.Defs = refAllRegs
		d.MemUse, d.MemDef = true, true
		d.FlagDefs = x86.AllFlags
	}
	if len(in.Args) > 0 && !d.Barrier {
		for _, r := range e.RegsWritten {
			if r.IsGPR() && (r.Width() == x86.W8 || r.Width() == x86.W16) {
				d.Uses.Add(r)
			}
		}
	}
	return d
}

type refBlock struct {
	index int
	label string
	insts []*ir.Node
	succs []*refBlock
	preds []*refBlock
}

func (b *refBlock) last() *ir.Node {
	if len(b.insts) == 0 {
		return nil
	}
	return b.insts[len(b.insts)-1]
}

func (b *refBlock) terminator() *x86.Inst {
	last := b.last()
	if last == nil || !last.Inst.Op.IsBranch() || last.Inst.Op == x86.OpCALL {
		return nil
	}
	return last.Inst
}

type refGraph struct {
	fn         *ir.Function
	blocks     []*refBlock
	unresolved []*ir.Node
	blockOf    map[*ir.Node]*refBlock
	byLabel    map[string]*refBlock
}

// refBuild is the leader-array CFG construction over f.CodeEntries().
func refBuild(f *ir.Function) *refGraph {
	g := &refGraph{
		fn:      f,
		blockOf: make(map[*ir.Node]*refBlock),
		byLabel: make(map[string]*refBlock),
	}
	entries := f.CodeEntries()
	leader := make([]bool, len(entries))
	afterBranch := true
	for i, n := range entries {
		switch n.Kind {
		case ir.NodeLabel:
			leader[i] = true
			afterBranch = false
		case ir.NodeInst:
			if afterBranch {
				leader[i] = true
			}
			afterBranch = n.Inst.Op.IsBranch() && n.Inst.Op != x86.OpCALL
		}
	}
	var cur *refBlock
	newBlock := func(label string) *refBlock {
		b := &refBlock{index: len(g.blocks), label: label}
		g.blocks = append(g.blocks, b)
		if label != "" {
			g.byLabel[label] = b
		}
		return b
	}
	for i, n := range entries {
		switch n.Kind {
		case ir.NodeLabel:
			if cur == nil || len(cur.insts) > 0 || cur.label != "" && cur.label != n.Label {
				cur = newBlock(n.Label)
			} else if cur.label == "" {
				cur.label = n.Label
				g.byLabel[n.Label] = cur
			}
			g.blockOf[n] = cur
		case ir.NodeInst:
			if cur == nil || leader[i] && len(cur.insts) > 0 {
				cur = newBlock("")
			}
			cur.insts = append(cur.insts, n)
			g.blockOf[n] = cur
		}
	}
	if len(g.blocks) == 0 {
		newBlock("")
	}
	addEdge := func(from, to *refBlock) {
		if from == nil || to == nil {
			return
		}
		for _, s := range from.succs {
			if s == to {
				return
			}
		}
		from.succs = append(from.succs, to)
		to.preds = append(to.preds, from)
	}
	for i, b := range g.blocks {
		var next *refBlock
		if i+1 < len(g.blocks) {
			next = g.blocks[i+1]
		}
		last := b.last()
		if last == nil {
			addEdge(b, next)
			continue
		}
		in := last.Inst
		switch {
		case in.Op == x86.OpRET:
		case in.Op == x86.OpJMP:
			if tgt, ok := in.BranchTarget(); ok {
				addEdge(b, g.byLabel[tgt])
			} else if targets, ok := g.resolveIndirect(b, last); ok {
				for _, t := range targets {
					addEdge(b, g.byLabel[t])
				}
			} else {
				g.unresolved = append(g.unresolved, last)
			}
		case in.Op == x86.OpJCC:
			if tgt, ok := in.BranchTarget(); ok {
				addEdge(b, g.byLabel[tgt])
			} else {
				g.unresolved = append(g.unresolved, last)
			}
			addEdge(b, next)
		default:
			addEdge(b, next)
		}
	}
	return g
}

func (g *refGraph) resolveIndirect(b *refBlock, jmp *ir.Node) ([]string, bool) {
	in := jmp.Inst
	if len(in.Args) != 1 || !in.Args[0].Star {
		return nil, false
	}
	a := in.Args[0]
	if a.Kind == x86.KindMem && a.Mem.Sym != "" && a.Mem.Base != x86.RIP {
		if targets, ok := g.readJumpTable(a.Mem.Sym); ok {
			return targets, true
		}
	}
	if a.Kind == x86.KindReg {
		if def := g.reachingDefInBlock(b, jmp, a.Reg); def != nil {
			di := def.Inst
			if (di.Op == x86.OpMOV || di.Op == x86.OpMOVSX) &&
				len(di.Args) == 2 && di.Args[0].Kind == x86.KindMem &&
				di.Args[0].Mem.Sym != "" {
				if targets, ok := g.readJumpTable(di.Args[0].Mem.Sym); ok {
					return targets, true
				}
			}
		}
	}
	return nil, false
}

// reachingDefInBlock decides writes with the side-effect tables, as
// the jump-table fix does: every written family counts, implicit ones
// included, and any barrier (call, ret, an unknown instruction) ends
// the walk.
func (g *refGraph) reachingDefInBlock(b *refBlock, use *ir.Node, reg x86.Reg) *ir.Node {
	idx := -1
	for i, n := range b.insts {
		if n == use {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil
	}
	for depth := 0; depth < 8; depth++ {
		for i := idx - 1; i >= 0; i-- {
			n := b.insts[i]
			e := sidefx.InstEffects(n.Inst)
			if e.WritesReg(reg) {
				return n
			}
			if e.Barrier {
				return nil
			}
		}
		if len(b.preds) != 1 {
			return nil
		}
		b = b.preds[0]
		idx = len(b.insts)
	}
	return nil
}

func (g *refGraph) readJumpTable(sym string) ([]string, bool) {
	start := g.fn.Unit().FindLabel(sym)
	if start == nil {
		return nil, false
	}
	var targets []string
	for n := start.Next(); n != nil; n = n.Next() {
		if n.Kind != ir.NodeDirective {
			break
		}
		if n.Dir.Name != ".quad" && n.Dir.Name != ".long" {
			break
		}
		targets = append(targets, n.Dir.Args...)
	}
	if len(targets) == 0 {
		return nil, false
	}
	return targets, true
}

type refLiveness struct {
	liveOut      map[*ir.Node]dataflow.RegSet
	flagsOut     map[*ir.Node]x86.Flags
	blockLiveIn  []dataflow.RegSet
	blockFlagsIn []x86.Flags
}

// refLive is the per-block composite fixpoint with per-node maps.
func refLive(g *refGraph) *refLiveness {
	l := &refLiveness{
		liveOut:  make(map[*ir.Node]dataflow.RegSet),
		flagsOut: make(map[*ir.Node]x86.Flags),
	}
	nb := len(g.blocks)
	l.blockLiveIn = make([]dataflow.RegSet, nb)
	l.blockFlagsIn = make([]x86.Flags, nb)
	du := make([][]dataflow.DefUse, nb)
	killR := make([]dataflow.RegSet, nb)
	genR := make([]dataflow.RegSet, nb)
	killF := make([]x86.Flags, nb)
	genF := make([]x86.Flags, nb)
	for i, b := range g.blocks {
		du[i] = make([]dataflow.DefUse, len(b.insts))
		for j := len(b.insts) - 1; j >= 0; j-- {
			d := refInstDefUse(b.insts[j].Inst)
			du[i][j] = d
			killR[i] |= d.Defs
			genR[i] = genR[i]&^d.Defs | d.Uses
			killF[i] |= d.FlagDefs
			genF[i] = genF[i]&^d.FlagDefs | d.FlagUses
		}
	}
	exit := func(b *refBlock) (dataflow.RegSet, x86.Flags) {
		var live dataflow.RegSet
		var flags x86.Flags
		for _, s := range b.succs {
			live |= l.blockLiveIn[s.index]
			flags |= l.blockFlagsIn[s.index]
		}
		if term := b.terminator(); term != nil && term.IsIndirectBranch() && len(b.succs) == 0 {
			live = refAllRegs
			flags = x86.AllFlags
		}
		return live, flags
	}
	for changed := true; changed; {
		changed = false
		for i := nb - 1; i >= 0; i-- {
			live, flags := exit(g.blocks[i])
			live = live&^killR[i] | genR[i]
			flags = flags&^killF[i] | genF[i]
			if live != l.blockLiveIn[i] || flags != l.blockFlagsIn[i] {
				l.blockLiveIn[i] = live
				l.blockFlagsIn[i] = flags
				changed = true
			}
		}
	}
	for i, b := range g.blocks {
		live, flags := exit(b)
		for j := len(b.insts) - 1; j >= 0; j-- {
			n := b.insts[j]
			l.liveOut[n] = live
			l.flagsOut[n] = flags
			d := &du[i][j]
			live = live&^d.Defs | d.Uses
			flags = flags&^d.FlagDefs | d.FlagUses
		}
	}
	return l
}

type refBitvec []uint64

func newRefBitvec(n int) refBitvec { return make(refBitvec, (n+63)/64) }

func (v refBitvec) set(i int)      { v[i/64] |= 1 << (i % 64) }
func (v refBitvec) has(i int) bool { return v[i/64]&(1<<(i%64)) != 0 }

func (v refBitvec) or(src refBitvec) bool {
	changed := false
	for i, w := range src {
		if v[i]|w != v[i] {
			v[i] |= w
			changed = true
		}
	}
	return changed
}

type refReachingDefs struct {
	defs    []*ir.Node
	defIdx  map[*ir.Node][]int
	reachIn map[*ir.Node]refBitvec
	byReg   map[int]dataflow.RegSet
}

// refReach records a cloned reaching set per instruction on every
// sweep. A definition is killed by a later one only when the later
// one writes every family it wrote.
func refReach(g *refGraph) *refReachingDefs {
	r := &refReachingDefs{
		defIdx:  make(map[*ir.Node][]int),
		reachIn: make(map[*ir.Node]refBitvec),
		byReg:   make(map[int]dataflow.RegSet),
	}
	var defRegs []dataflow.RegSet
	for _, b := range g.blocks {
		for _, n := range b.insts {
			if d := refInstDefUse(n.Inst); d.Defs != 0 {
				r.defIdx[n] = append(r.defIdx[n], len(r.defs))
				r.byReg[len(r.defs)] = d.Defs
				r.defs = append(r.defs, n)
				defRegs = append(defRegs, d.Defs)
			}
		}
	}
	nd := len(r.defs)
	kills := func(s dataflow.RegSet) refBitvec {
		v := newRefBitvec(nd)
		for i, regs := range defRegs {
			if regs&^s == 0 {
				v.set(i)
			}
		}
		return v
	}
	blockOut := make([]refBitvec, len(g.blocks))
	for i := range blockOut {
		blockOut[i] = newRefBitvec(nd)
	}
	for changed := true; changed; {
		changed = false
		for _, b := range g.blocks {
			in := newRefBitvec(nd)
			for _, p := range b.preds {
				in.or(blockOut[p.index])
			}
			for _, n := range b.insts {
				r.reachIn[n] = append(refBitvec(nil), in...)
				if d := refInstDefUse(n.Inst); d.Defs != 0 {
					k := kills(d.Defs)
					for i := range in {
						in[i] &^= k[i]
					}
					for _, idx := range r.defIdx[n] {
						in.set(idx)
					}
				}
			}
			if blockOut[b.index].or(in) {
				changed = true
			}
		}
	}
	return r
}

func (r *refReachingDefs) defsReaching(n *ir.Node, reg x86.Reg) []*ir.Node {
	in := r.reachIn[n]
	var out []*ir.Node
	var want dataflow.RegSet
	want.Add(reg)
	for i := range r.defs {
		if in.has(i) && r.byReg[i]&want != 0 {
			out = append(out, r.defs[i])
		}
	}
	return out
}
