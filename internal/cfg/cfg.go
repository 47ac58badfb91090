// Package cfg builds per-function control-flow graphs over the MAO IR.
//
// Indirect jumps make CFG construction undecidable in general; like
// the original MAO, this package relies on the fact that it sees
// compiler-generated assembly and recognizes a small set of jump-table
// patterns. When a branch cannot be resolved the function is flagged
// (ir.Function.Unresolved) and optimization passes decide for
// themselves whether to proceed.
package cfg

import (
	"fmt"
	"sort"

	"mao/internal/ir"
	"mao/internal/x86"
	"mao/internal/x86/sidefx"
)

// BasicBlock is a maximal straight-line instruction sequence.
type BasicBlock struct {
	Index int
	// Label is the name of the block's leading label, if any.
	Label string
	// Insts are the instruction nodes of the block in order. The build
	// caps the slice at its length, so a pass may shrink it in place or
	// replace it, but appending copies it out of the graph's slab.
	// A graph handed out by a pass.Ctx is kept for the passes after it:
	// a pass may splice Insts only after it has edited the function
	// through a Ctx helper, which also drops the graph and the analyses
	// computed from it from the Ctx's table.
	Insts []*ir.Node

	Succs []*BasicBlock
	Preds []*BasicBlock

	// first is the build position of the block's first instruction:
	// the build placed its instructions at positions first,
	// first+1, ... in order (see Graph.InstPos).
	first int
	// leader is the label node that opened the block, if any.
	leader *ir.Node
}

// Last returns the block's final instruction node, or nil for an empty
// block.
func (b *BasicBlock) Last() *ir.Node {
	if len(b.Insts) == 0 {
		return nil
	}
	return b.Insts[len(b.Insts)-1]
}

// Terminator returns the block-ending branch instruction, or nil when
// the block falls through.
func (b *BasicBlock) Terminator() *x86.Inst {
	last := b.Last()
	if last == nil || !last.Inst.Op.IsBranch() || last.Inst.Op == x86.OpCALL {
		return nil
	}
	return last.Inst
}

func (b *BasicBlock) String() string {
	if b.Label != "" {
		return fmt.Sprintf("B%d(%s)", b.Index, b.Label)
	}
	return fmt.Sprintf("B%d", b.Index)
}

// Graph is a function's control-flow graph. Blocks[0] is the entry.
type Graph struct {
	Fn     *ir.Function
	Blocks []*BasicBlock

	// Unresolved lists indirect branches no pattern could resolve.
	// When non-empty the function was flagged and the graph's edges
	// are incomplete.
	Unresolved []*ir.Node

	byLabel map[string]*BasicBlock

	// The position index: instruction node -> build position, keyed on
	// ir.Node.Index (see InstPos). Indices are dense per list, so a
	// function's instructions usually span an index range not much
	// wider than their count, and pos is a table over that range. The
	// instructions a pass inserts (NOPIN, LSD, BRALIGN, INSTRUMENT,
	// PREFNTA) take indices far above their neighbours'; when the range
	// exceeds 2×instructions+64, far maps index to position instead.
	// Either way the index's size follows the function, never the unit.
	list   *ir.List
	nInsts int
	lo     int           // node index of pos[0]
	pos    []int32       // position+1 per node index in [lo, lo+len(pos)); 0 = not placed
	far    map[int]int32 // node index -> position, when the range is sparse
}

// Options controls CFG construction.
type Options struct {
	// ResolveWithDataflow enables the second jump-table pattern the
	// paper describes: following the reaching definition of an
	// indirect jump's target register back to a table load. Without
	// it, only direct "jmp *table(,r,8)" forms resolve.
	ResolveWithDataflow bool
}

// Build constructs the CFG of f with default options.
func Build(f *ir.Function) *Graph { return BuildWith(f, Options{ResolveWithDataflow: true}) }

// BuildWith constructs the CFG of f.
//
// One build costs a fixed number of allocations whatever the
// function's size: a counting walk over the function span sizes one
// block slab, one backing array shared by every block's Insts, one
// edge slab per direction, the label map and the position index, and
// a second walk fills them. Only resolved jump tables, which can add
// any number of edges, may grow the successor slab.
func BuildWith(f *ir.Function, opts Options) *Graph {
	g := &Graph{Fn: f}

	// Walk 1: count. Every label opens a block (unless it repeats the
	// label of a block still empty), and so does an instruction at
	// function entry or after a control transfer.
	nLabels, nBlocks := 0, 0
	lo, hi := 0, -1
	afterBranch := true // function entry
	for n := f.EntryLabel(); n != nil; n = n.Next() {
		if n.Section == f.SectionName {
			switch n.Kind {
			case ir.NodeLabel:
				nLabels++
				nBlocks++
				afterBranch = false
			case ir.NodeInst:
				if i := n.Index(); g.nInsts == 0 || i < lo {
					lo = i
				}
				if i := n.Index(); i > hi {
					hi = i
				}
				g.nInsts++
				if afterBranch {
					nBlocks++
				}
				afterBranch = n.Inst.Op.IsBranch() && n.Inst.Op != x86.OpCALL
			}
		}
		if n == f.End() {
			break
		}
	}

	// Walk 2: place.
	slab := make([]BasicBlock, 0, max(nBlocks, 1))
	insts := make([]*ir.Node, g.nInsts)
	g.byLabel = make(map[string]*BasicBlock, nLabels)
	var cur *BasicBlock
	p := 0 // next build position
	open := func(label string, leader *ir.Node) {
		if cur != nil {
			cur.Insts = insts[cur.first:p:p]
		}
		if len(slab) == cap(slab) {
			// Growing would move the blocks cur and byLabel point to.
			panic("cfg: block count exceeds the counting walk's bound")
		}
		slab = append(slab, BasicBlock{Index: len(slab), Label: label, first: p, leader: leader})
		cur = &slab[len(slab)-1]
		if label != "" {
			g.byLabel[label] = cur
		}
	}
	afterBranch = true
	for n := f.EntryLabel(); n != nil; n = n.Next() {
		if n.Section == f.SectionName {
			switch n.Kind {
			case ir.NodeLabel:
				if cur == nil || p > cur.first || cur.Label != "" && cur.Label != n.Label {
					open(n.Label, n)
				} else if cur.Label == "" {
					cur.Label = n.Label
					g.byLabel[n.Label] = cur
				}
				afterBranch = false
			case ir.NodeInst:
				if cur == nil || afterBranch && p > cur.first {
					open("", nil)
				}
				insts[p] = n
				p++
				afterBranch = n.Inst.Op.IsBranch() && n.Inst.Op != x86.OpCALL
			}
		}
		if n == f.End() {
			break
		}
	}
	if cur == nil {
		open("", nil)
	}
	cur.Insts = insts[cur.first:p:p]
	g.Blocks = make([]*BasicBlock, len(slab))
	for i := range slab {
		g.Blocks[i] = &slab[i]
	}

	g.link(opts)
	g.index(f, insts, lo, hi)
	f.Unresolved = len(g.Unresolved) > 0
	return g
}

// link adds the edges: each block's successors in order into one slab,
// then every block's predecessors, in the order the successor lists
// name them, into another.
func (g *Graph) link(opts Options) {
	succs := make([]*BasicBlock, 0, 2*len(g.Blocks))
	for i, b := range g.Blocks {
		start := len(succs)
		add := func(to *BasicBlock) {
			if to == nil {
				return
			}
			for _, s := range succs[start:] {
				if s == to {
					return
				}
			}
			succs = append(succs, to)
		}
		var next *BasicBlock
		if i+1 < len(g.Blocks) {
			next = g.Blocks[i+1]
		}
		if last := b.Last(); last == nil {
			add(next)
		} else {
			switch in := last.Inst; {
			case in.Op == x86.OpRET:
				// no successors
			case in.Op == x86.OpJMP:
				if tgt, ok := in.BranchTarget(); ok {
					add(g.targetBlock(tgt))
				} else if targets, ok := g.resolveIndirect(b, last, i, opts); ok {
					for _, t := range targets {
						add(g.targetBlock(t))
					}
				} else {
					g.Unresolved = append(g.Unresolved, last)
				}
			case in.Op == x86.OpJCC:
				if tgt, ok := in.BranchTarget(); ok {
					add(g.targetBlock(tgt))
				} else {
					g.Unresolved = append(g.Unresolved, last)
				}
				add(next)
			default:
				add(next)
			}
		}
		b.Succs = succs[start:len(succs):len(succs)]
	}

	// Count each block's predecessors, carve their lists out of one
	// slab, then fill them in successor order.
	count := make([]int, len(g.Blocks))
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			count[s.Index]++
		}
	}
	preds := make([]*BasicBlock, len(succs))
	off := 0
	for i, b := range g.Blocks {
		b.Preds = preds[off : off : off+count[i]]
		off += count[i]
	}
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			s.Preds = append(s.Preds, b)
		}
	}
}

// index builds the position index over the placed instructions, whose
// node indices lie in [lo, hi].
func (g *Graph) index(f *ir.Function, insts []*ir.Node, lo, hi int) {
	g.list = &f.Unit().List
	if span := hi - lo + 1; span <= 2*g.nInsts+64 {
		g.lo = lo
		g.pos = make([]int32, span)
		for p, n := range insts {
			g.pos[n.Index()-lo] = int32(p + 1)
		}
		return
	}
	g.far = make(map[int]int32, g.nInsts)
	for p, n := range insts {
		g.far[n.Index()] = int32(p)
	}
}

// NumInsts returns the number of instructions the build placed; their
// positions (see InstPos) are 0 through NumInsts()-1.
func (g *Graph) NumInsts() int { return g.nInsts }

// InstPos returns the position the build placed instruction node n at,
// counting the blocks' instructions in block order from 0, or -1 for a
// node the build did not place. It answers by node identity: reordering
// or splicing a block's Insts afterwards does not change it. Analyses
// over the graph keep per-instruction results in slices indexed by it.
func (g *Graph) InstPos(n *ir.Node) int {
	if g.list == nil || !g.list.Owns(n) {
		return -1
	}
	if g.far != nil {
		if p, ok := g.far[n.Index()]; ok {
			return int(p)
		}
		return -1
	}
	i := n.Index() - g.lo
	if uint(i) >= uint(len(g.pos)) {
		return -1
	}
	return int(g.pos[i]) - 1
}

// targetBlock maps a branch-target label to its block. Targets outside
// the function (tail calls, cross-function jumps) return nil.
func (g *Graph) targetBlock(label string) *BasicBlock {
	return g.byLabel[label]
}

// BlockOf returns the block containing node n, or nil. An instruction
// is found through the position index; a label belongs to the block it
// opened, or, repeated before any instruction, to the block its first
// copy opened.
func (g *Graph) BlockOf(n *ir.Node) *BasicBlock {
	switch n.Kind {
	case ir.NodeInst:
		if p := g.InstPos(n); p >= 0 {
			// The last block starting at or before p; blocks left empty
			// share their first with the block after them.
			i := sort.Search(len(g.Blocks), func(i int) bool { return g.Blocks[i].first > p })
			return g.Blocks[i-1]
		}
	case ir.NodeLabel:
		if n.Section != g.Fn.SectionName || !g.Fn.Contains(n) {
			return nil
		}
		for m := n; m != nil; m = m.Prev() {
			if m.Kind == ir.NodeLabel {
				for _, b := range g.Blocks {
					if b.leader == m {
						return b
					}
				}
			}
			if m == g.Fn.EntryLabel() {
				break
			}
		}
	}
	return nil
}

// BlockByLabel returns the block led by the given label, or nil.
func (g *Graph) BlockByLabel(label string) *BasicBlock { return g.byLabel[label] }

// resolveIndirect attempts to enumerate the targets of an indirect
// jump via jump-table pattern matching. Blocks before index linked
// have their successors.
func (g *Graph) resolveIndirect(b *BasicBlock, jmp *ir.Node, linked int, opts Options) ([]string, bool) {
	in := jmp.Inst
	if len(in.Args) != 1 || !in.Args[0].Star {
		return nil, false
	}
	a := in.Args[0]

	// Pattern 1: jmp *table(,%reg,8) — the jump-table dispatch older
	// GCC emits for position-dependent code.
	if a.Kind == x86.KindMem && a.Mem.Sym != "" && a.Mem.Base != x86.RIP {
		if targets, ok := g.readJumpTable(a.Mem.Sym); ok {
			return targets, true
		}
	}

	// Pattern 2 (added after the compiler upgrade described in the
	// paper): the target register is loaded from a jump table by a
	// reaching definition, e.g.
	//
	//	movq table(,%rdi,8), %rax
	//	...
	//	jmp *%rax
	if opts.ResolveWithDataflow && a.Kind == x86.KindReg {
		if def := g.reachingDefInBlock(b, jmp, a.Reg, linked); def != nil {
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

// reachingDefInBlock walks backward from use within its block (and
// through straight-line single-predecessor chains) to find the unique
// instruction writing reg, giving up at barriers or joins. This is the
// block-local slice of reaching definitions that jump-table resolution
// needs; the full iterative analysis lives in mao/internal/dataflow.
// Edges are added in block order, so a block's predecessors here are
// those among the blocks before index linked.
func (g *Graph) reachingDefInBlock(b *BasicBlock, use *ir.Node, reg x86.Reg, linked int) *ir.Node {
	idx := -1
	for i, n := range b.Insts {
		if n == use {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil
	}
	for depth := 0; depth < 8; depth++ { // bound single-pred chain walks
		for i := idx - 1; i >= 0; i-- {
			n := b.Insts[i]
			// Every family the instruction writes counts, implicit ones
			// (cltq, mulq) and second operands (xchgq) included. Calls,
			// returns and instructions the tables do not know end the
			// walk.
			var buf [8]x86.Reg
			e := sidefx.AppendEffects(n.Inst, nil, buf[:0])
			if e.WritesReg(reg) {
				return n
			}
			if e.Barrier {
				return nil
			}
		}
		if b = g.onlyPredBefore(b, linked); b == nil {
			return nil
		}
		idx = len(b.Insts)
	}
	return nil
}

// onlyPredBefore returns b's one predecessor among the blocks before
// index linked, or nil when there are none or several.
func (g *Graph) onlyPredBefore(b *BasicBlock, linked int) *BasicBlock {
	var pred *BasicBlock
	for _, p := range g.Blocks[:linked] {
		for _, s := range p.Succs {
			if s == b {
				if pred != nil {
					return nil
				}
				pred = p
			}
		}
	}
	return pred
}

// readJumpTable reads the .quad label entries at the given table
// symbol. It returns ok=false when the symbol is unknown or holds no
// label entries.
func (g *Graph) readJumpTable(sym string) ([]string, bool) {
	start := g.Fn.Unit().FindLabel(sym)
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
