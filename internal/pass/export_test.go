package pass

import (
	"fmt"
	"slices"
	"sync/atomic"

	"mao/internal/cfg"
	"mao/internal/dataflow"
	"mao/internal/ir"
	"mao/internal/x86"
)

// AnalysisCounts counts the CFG builds and liveness solves the tables
// make.
type AnalysisCounts struct{ CFG, Live atomic.Int64 }

// CountAnalyses counts every CFG build and liveness solve any table
// makes into c until the returned function is called.
func CountAnalyses(c *AnalysisCounts) (restore func()) {
	onBuild = func(kind string) {
		switch kind {
		case "cfg":
			c.CFG.Add(1)
		case "live":
			c.Live.Add(1)
		}
	}
	return func() { onBuild = nil }
}

// CheckReuse makes every reuse of a table entry rebuild the analyses
// the entry holds and compare them with the ones it hands out; fail
// receives each difference (it may be called from pipeline workers).
// reused counts the entries checked. The seam holds until the returned
// function is called.
func CheckReuse(fail func(format string, args ...any), reused *atomic.Int64) (restore func()) {
	onReuse = func(f *ir.Function, e funcAnalyses) {
		reused.Add(1)
		if err := diffAnalyses(f, e); err != nil {
			fail("%s: reused analysis differs from a rebuild: %v", f.Name, err)
		}
	}
	return func() { onReuse = nil }
}

func diffAnalyses(f *ir.Function, e funcAnalyses) error {
	g := cfg.Build(f)
	if err := diffGraph(e.g, g); err != nil {
		return fmt.Errorf("cfg: %w", err)
	}
	if e.live != nil {
		if err := diffLive(e.g, e.live, g, dataflow.Live(g)); err != nil {
			return fmt.Errorf("liveness: %w", err)
		}
	}
	if e.reach != nil {
		if err := diffReach(e.reach, g, dataflow.Reach(g)); err != nil {
			return fmt.Errorf("reaching definitions: %w", err)
		}
	}
	return nil
}

// diffGraph compares blocks, labels, instructions by identity, edges
// by block index, the unresolved branches and the position index.
func diffGraph(old, cur *cfg.Graph) error {
	if len(old.Blocks) != len(cur.Blocks) {
		return fmt.Errorf("%d blocks, rebuild has %d", len(old.Blocks), len(cur.Blocks))
	}
	indices := func(bs []*cfg.BasicBlock) []int {
		out := make([]int, len(bs))
		for i, b := range bs {
			out[i] = b.Index
		}
		return out
	}
	for i, b := range old.Blocks {
		c := cur.Blocks[i]
		switch {
		case b.Index != c.Index || b.Label != c.Label:
			return fmt.Errorf("block %d is %v, rebuild has %v", i, b, c)
		case !slices.Equal(b.Insts, c.Insts):
			return fmt.Errorf("block %v: instructions differ", b)
		case !slices.Equal(indices(b.Succs), indices(c.Succs)):
			return fmt.Errorf("block %v: successors %v, rebuild has %v", b, indices(b.Succs), indices(c.Succs))
		case !slices.Equal(indices(b.Preds), indices(c.Preds)):
			return fmt.Errorf("block %v: predecessors %v, rebuild has %v", b, indices(b.Preds), indices(c.Preds))
		}
	}
	if !slices.Equal(old.Unresolved, cur.Unresolved) {
		return fmt.Errorf("unresolved branches differ")
	}
	if old.NumInsts() != cur.NumInsts() {
		return fmt.Errorf("%d instructions placed, rebuild has %d", old.NumInsts(), cur.NumInsts())
	}
	for _, b := range cur.Blocks {
		for _, n := range b.Insts {
			if p, q := old.InstPos(n), cur.InstPos(n); p != q {
				return fmt.Errorf("%v at position %d, rebuild has %d", n.Inst, p, q)
			}
		}
	}
	return nil
}

// diffLive compares every instruction's live-out registers and flags
// and every block's live-in sets.
func diffLive(oldG *cfg.Graph, old *dataflow.Liveness, g *cfg.Graph, cur *dataflow.Liveness) error {
	for i, b := range g.Blocks {
		ob := oldG.Blocks[i]
		if old.BlockLiveIn(ob) != cur.BlockLiveIn(b) || old.BlockFlagsIn(ob) != cur.BlockFlagsIn(b) {
			return fmt.Errorf("block %v: live-in differs", b)
		}
		for _, n := range b.Insts {
			if old.LiveOut(n) != cur.LiveOut(n) || old.FlagsLiveOut(n) != cur.FlagsLiveOut(n) {
				return fmt.Errorf("live-out of %v differs", n.Inst)
			}
		}
	}
	return nil
}

// diffReach compares, for every instruction and every register family
// it uses, the definitions reaching it.
func diffReach(old *dataflow.ReachingDefs, g *cfg.Graph, cur *dataflow.ReachingDefs) error {
	for _, b := range g.Blocks {
		for _, n := range b.Insts {
			uses := dataflow.InstDefUse(n.Inst).Uses
			for i := x86.Reg(0); i < 16; i++ {
				for _, r := range [2]x86.Reg{x86.RAX + i, x86.XMM0 + i} {
					if uses.Has(r) && !slices.Equal(old.DefsReaching(n, r), cur.DefsReaching(n, r)) {
						return fmt.Errorf("definitions of %s reaching %v differ", r.ATT(), n.Inst)
					}
				}
			}
		}
	}
	return nil
}
