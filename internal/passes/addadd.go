package passes

import (
	"mao/internal/dataflow"
	"mao/internal/ir"
	"mao/internal/pass"
	"mao/internal/x86"
)

func init() {
	pass.Register(func() pass.Pass {
		return &addAdd{base: base{"ADDADD", "fold add/sub immediate chains on the same register"}}
	})
}

// addAdd implements the paper's III-B.d pattern:
//
//	add/sub $IMM1, rX
//	... no re-definition/use of rX, no use of condition codes
//	add/sub $IMM2, rX
//
// folds to a single add/sub with the combined constant. The combined
// result value is identical, but the intermediate flag settings
// differ, so every flag bit live after the second op must be one of
// SF/ZF/PF (which depend only on the final value), and no instruction
// in between may read flags.
type addAdd struct {
	base
	parallelSafe
}

func (p *addAdd) RunFunc(ctx *pass.Ctx, f *ir.Function) (bool, error) {
	g := ctx.CFG(f)
	live := ctx.Live(f)

	changed := false
	for _, b := range g.Blocks {
	scan:
		for i := 0; i < len(b.Insts); i++ {
			first := b.Insts[i].Inst
			imm1, reg, ok := addSubImm(first)
			if !ok {
				continue
			}
			for j := i + 1; j < len(b.Insts); j++ {
				n := b.Insts[j]
				in := n.Inst
				if imm2, reg2, ok := addSubImm(in); ok && reg2 == reg && in.Width == first.Width {
					if live.FlagsLiveOut(n)&^(x86.SF|x86.ZF|x86.PF) != 0 {
						continue scan
					}
					sum := imm1 + imm2
					if sum < -1<<31 || sum > 1<<31-1 {
						continue scan // folded constant must stay imm32
					}
					ctx.Trace(2, "%s: folding %v + %v => add $%d", f.Name, first, in, sum)
					in.Op = x86.OpADD
					in.Args[0] = x86.Imm(sum)
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

// addSubImm matches "add $imm, reg" / "sub $imm, reg" and returns the
// signed contribution (negated for sub).
func addSubImm(in *x86.Inst) (imm int64, reg x86.Reg, ok bool) {
	if in.Op != x86.OpADD && in.Op != x86.OpSUB {
		return 0, 0, false
	}
	if len(in.Args) != 2 || in.Args[0].Kind != x86.KindImm ||
		in.Args[0].Sym != "" || in.Args[1].Kind != x86.KindReg {
		return 0, 0, false
	}
	imm = in.Args[0].Imm
	if in.Op == x86.OpSUB {
		imm = -imm
	}
	return imm, in.Args[1].Reg, true
}
