package passes

import (
	"mao/internal/cfg"
	"mao/internal/dataflow"
	"mao/internal/ir"
	"mao/internal/pass"
	"mao/internal/x86"
)

func init() {
	pass.Register(func() pass.Pass { return &dce{base: base{"DCE", "remove unreachable code"}} })
	pass.Register(func() pass.Pass {
		return &constFold{base: base{"CONSTFOLD", "fold constants through mov-immediate chains"}}
	})
}

// dce implements the unreachable-code-elimination part of the paper's
// scalar optimizations (Section III-D). Blocks unreachable from the
// function entry are deleted. Functions with unresolved indirect
// branches are skipped — the CFG's edges are incomplete there, so
// "unreachable" cannot be trusted.
type dce struct {
	base
	parallelSafe
}

func (p *dce) RunFunc(ctx *pass.Ctx, f *ir.Function) (bool, error) {
	g := ctx.CFG(f)
	if f.Unresolved {
		ctx.Trace(1, "%s: skipped (unresolved indirect branches)", f.Name)
		return false, nil
	}
	if len(g.Blocks) == 0 {
		return false, nil
	}

	reachable := make(map[*cfg.BasicBlock]bool)
	var visit func(b *cfg.BasicBlock)
	visit = func(b *cfg.BasicBlock) {
		if reachable[b] {
			return
		}
		reachable[b] = true
		for _, s := range b.Succs {
			visit(s)
		}
	}
	visit(g.Blocks[0])

	changed := false
	for _, b := range g.Blocks {
		if reachable[b] {
			continue
		}
		// A labeled block may be targeted from outside the function
		// (e.g. by address-taken labels); only unlabeled blocks and
		// compiler-local labels are safe to delete.
		if b.Label != "" && !isLocalLabel(b.Label) {
			continue
		}
		for _, n := range b.Insts {
			ctx.Trace(2, "%s: removing unreachable %v", f.Name, n.Inst)
			ctx.Delete(n)
			ctx.Count("removed", 1)
			changed = true
		}
	}
	return changed, nil
}

func isLocalLabel(l string) bool { return len(l) >= 2 && l[0] == '.' && l[1] == 'L' }

// constFold folds immediate chains at the assembly level:
//
//	movl $A, r ... addl $B, r   =>   movl $A+B, r
//
// provided nothing between uses or redefines r, nothing reads the
// intermediate flags, and the arithmetic flags of the folded op are
// dead afterwards (mov sets no flags where add set them). There is
// typically not much opportunity left in compiler output, but the
// paper keeps a standard scalar set for the benefit of simple code
// generators feeding MAO.
type constFold struct {
	base
	parallelSafe
}

func (p *constFold) RunFunc(ctx *pass.Ctx, f *ir.Function) (bool, error) {
	g := ctx.CFG(f)
	live := ctx.Live(f)

	changed := false
	for _, b := range g.Blocks {
	scan:
		for i := 0; i < len(b.Insts); i++ {
			mov := b.Insts[i].Inst
			movImm, reg, ok := movImmReg(mov)
			if !ok {
				continue
			}
			for j := i + 1; j < len(b.Insts); j++ {
				n := b.Insts[j]
				in := n.Inst
				if add, reg2, ok := addSubImm(in); ok && reg2 == reg && in.Width == mov.Width {
					if live.FlagsLiveOut(n) != 0 {
						continue scan
					}
					folded := movImm + add
					if mov.Width == x86.W32 {
						folded = int64(int32(folded))
					}
					if folded < -1<<31 || folded > 1<<31-1 {
						continue scan
					}
					ctx.Trace(2, "%s: folding %v through %v", f.Name, mov, in)
					in.Op = x86.OpMOV
					in.Args[0] = x86.Imm(folded)
					ctx.Rewrite(n)
					ctx.Delete(b.Insts[i])
					b.Insts = append(b.Insts[:i], b.Insts[i+1:]...)
					ctx.Count("folded", 1)
					changed = true
					i--
					continue scan
				}
				d := dataflow.InstDefUse(in)
				if d.FlagUses != 0 || d.Uses.Has(reg) || d.Defs.Has(reg) || d.Barrier {
					continue scan
				}
			}
		}
	}
	return changed, nil
}

// movImmReg matches "mov $imm, reg".
func movImmReg(in *x86.Inst) (int64, x86.Reg, bool) {
	if in.Op != x86.OpMOV || len(in.Args) != 2 {
		return 0, 0, false
	}
	if in.Args[0].Kind != x86.KindImm || in.Args[0].Sym != "" ||
		in.Args[1].Kind != x86.KindReg {
		return 0, 0, false
	}
	return in.Args[0].Imm, in.Args[1].Reg, true
}
