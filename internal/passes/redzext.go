package passes

import (
	"mao/internal/ir"
	"mao/internal/pass"
	"mao/internal/x86"
)

func init() {
	pass.Register(func() pass.Pass {
		return &redZext{base: base{"REDZEXT", "remove redundant zero-extension moves (mov %eNN, %eNN)"}}
	})
}

// redZext implements the paper's III-B.a pattern: GCC 4.3/4.4 does not
// model zero-extension well and emits sequences like
//
//	andl $255, %eax
//	mov  %eax, %eax     # redundant: the andl already zero-extended
//
// The self-move is redundant exactly when every definition reaching it
// is a 32-bit GPR write to the same register family, because 32-bit
// writes already zero bits 32–63. Incoming function arguments (no
// reaching definition) disqualify: the ABI leaves their upper bits
// undefined, and the self-move is GCC's way of zero-extending them.
type redZext struct {
	base
	parallelSafe
}

func (p *redZext) RunFunc(ctx *pass.Ctx, f *ir.Function) (bool, error) {
	g := ctx.CFG(f)
	reach := ctx.Reach(f)

	changed := false
	for _, b := range g.Blocks {
		for _, n := range b.Insts {
			in := n.Inst
			if !isSelfMove32(in) {
				continue
			}
			defs := reach.DefsReaching(n, in.Args[0].Reg)
			if len(defs) == 0 {
				continue // likely an incoming argument; the move matters
			}
			ok := true
			for _, d := range defs {
				if !zeroExtends32(d.Inst, in.Args[0].Reg) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			ctx.Trace(2, "%s: removing %v (all reaching defs zero-extend)", f.Name, in)
			ctx.Delete(n)
			ctx.Count("removed", 1)
			changed = true
		}
	}
	return changed, nil
}

// isSelfMove32 matches "movl %rX, %rX" for a 32-bit GPR.
func isSelfMove32(in *x86.Inst) bool {
	return in.Op == x86.OpMOV && in.Width == x86.W32 &&
		len(in.Args) == 2 &&
		in.Args[0].Kind == x86.KindReg && in.Args[1].Kind == x86.KindReg &&
		in.Args[0].Reg == in.Args[1].Reg &&
		in.Args[0].Reg.Width() == x86.W32
}

// zeroExtends32 reports whether in writes reg's family via a 32-bit
// register destination (which zero-extends to 64 bits).
func zeroExtends32(in *x86.Inst, reg x86.Reg) bool {
	if in.Op.IsBranch() || len(in.Args) == 0 {
		return false
	}
	dst := in.Args[len(in.Args)-1]
	if dst.Kind != x86.KindReg || dst.Reg.Family() != reg.Family() {
		return false
	}
	// A 32-bit destination always zero-extends; movzbl/movzwl land
	// here too via Width. 64-bit writes leave garbage possible only
	// if the value itself exceeds 32 bits — not knowable, so only
	// 32-bit writes qualify.
	return dst.Reg.Width() == x86.W32 && in.Width == x86.W32
}
