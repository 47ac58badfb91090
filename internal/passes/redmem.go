package passes

import (
	"mao/internal/dataflow"
	"mao/internal/ir"
	"mao/internal/pass"
	"mao/internal/x86"
)

func init() {
	pass.Register(func() pass.Pass {
		return &redMem{base: base{"REDMOV", "rewrite repeated identical loads as register moves"}}
	})
}

// redMem implements the paper's III-B.c pattern. Because of phase
// ordering and register allocation, GCC emits repeated loads:
//
//	movq 24(%rsp), %rdx
//	movq 24(%rsp), %rcx
//
// The second load can reuse the first's register:
//
//	movq 24(%rsp), %rdx
//	movq %rdx, %rcx
//
// which is two bytes shorter and performs one explicit memory access.
// Soundness (MAO has no alias analysis, so everything is syntactic):
// between the two loads there must be no store, no barrier, no write
// to the first destination, and no write to the address registers.
// When both loads target the same register the second is removed
// outright.
type redMem struct {
	base
	parallelSafe
}

func (p *redMem) RunFunc(ctx *pass.Ctx, f *ir.Function) (bool, error) {
	g := ctx.CFG(f)

	changed := false
	for _, b := range g.Blocks {
		for i := 0; i < len(b.Insts); i++ {
			first := b.Insts[i].Inst
			if !isRegLoad(first) {
				continue
			}
			mem := first.Args[0].Mem
			dst := first.Args[1].Reg

			for j := i + 1; j < len(b.Insts); j++ {
				n := b.Insts[j]
				in := n.Inst
				if isRegLoad(in) && in.Width == first.Width && sameMem(in.Args[0].Mem, mem) {
					second := in.Args[1].Reg
					if second == dst {
						ctx.Trace(2, "%s: removing fully redundant %v", f.Name, in)
						ctx.Delete(n)
						b.Insts = append(b.Insts[:j], b.Insts[j+1:]...)
						j--
						ctx.Count("removed", 1)
						changed = true
						continue
					}
					ctx.Trace(2, "%s: rewriting %v -> mov %s, %s", f.Name, in, dst.ATT(), second.ATT())
					in.Args[0] = x86.RegOp(dst)
					ctx.Rewrite(n)
					ctx.Count("rewritten", 1)
					changed = true
					continue
				}
				if killsLoadPattern(in, mem, dst) {
					break
				}
			}
		}
	}
	return changed, nil
}

// isRegLoad matches "mov mem, reg" of GPRs.
func isRegLoad(in *x86.Inst) bool {
	return in.Op == x86.OpMOV && len(in.Args) == 2 &&
		in.Args[0].Kind == x86.KindMem && !in.Args[0].Star &&
		in.Args[1].Kind == x86.KindReg && in.Args[1].Reg.IsGPR()
}

// killsLoadPattern reports whether in invalidates reuse of a value
// loaded from mem into dst.
func killsLoadPattern(in *x86.Inst, mem x86.Mem, dst x86.Reg) bool {
	d := dataflow.InstDefUse(in)
	if d.Barrier || d.MemDef {
		return true
	}
	if d.Defs.Has(dst) {
		return true
	}
	if mem.Base != x86.RegNone && mem.Base != x86.RIP && d.Defs.Has(mem.Base) {
		return true
	}
	if mem.Index != x86.RegNone && d.Defs.Has(mem.Index) {
		return true
	}
	return false
}
