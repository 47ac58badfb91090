package passes

import (
	"mao/internal/cfg"
	"mao/internal/dataflow"
	"mao/internal/ir"
	"mao/internal/pass"
	"mao/internal/x86"
)

func init() {
	pass.Register(func() pass.Pass {
		return &redTest{base: base{"REDTEST", "remove redundant test instructions after flag-setting arithmetic"}}
	})
}

// redTest implements the paper's III-B.b pattern: GCC does not model
// the x86 condition codes well and emits
//
//	subl  $16, %r15d
//	testl %r15d, %r15d   # redundant: subl already set the flags
//
// Removal is sound when three conditions hold:
//
//  1. Walking back from the test (within its block), the first
//     instruction touching the flags or the tested register is an
//     arithmetic op whose destination IS the tested register and whose
//     SF/ZF/PF reflect its result (add/sub/and/or/xor/inc/dec/neg...),
//     at the same operand width.
//  2. Nothing between that op and the test reads flags.
//  3. Every flag bit live after the test is one the preceding op
//     defines identically to test: SF/ZF/PF always; CF/OF only for
//     the logical ops that zero them like test does.
//
// This is the "precise condition-code model" the paper credits for
// finding 19272 redundant tests (24%) in the Google core library.
type redTest struct {
	base
	parallelSafe
}

func (p *redTest) RunFunc(ctx *pass.Ctx, f *ir.Function) (bool, error) {
	g := ctx.CFG(f)
	live := ctx.Live(f)

	changed := false
	for _, b := range g.Blocks {
		for i, n := range b.Insts {
			in := n.Inst
			if !isSelfTest(in) {
				continue
			}
			reg := in.Args[0].Reg
			def := findFlagSource(b, i, reg)
			if def == nil {
				continue
			}
			identical := x86.SF | x86.ZF | x86.PF
			if zeroesCFOF[def.Inst.Op] {
				identical |= x86.CF | x86.OF
			}
			if live.FlagsLiveOut(n)&^identical != 0 {
				ctx.Trace(3, "%s: keeping %v: consumer reads %v", f.Name, in,
					live.FlagsLiveOut(n)&^identical)
				continue
			}
			ctx.Trace(2, "%s: removing %v (flags set by %v)", f.Name, in, def.Inst)
			ctx.Delete(n)
			ctx.Count("removed", 1)
			changed = true
		}
	}
	return changed, nil
}

// isSelfTest matches "test r, r" with both operands the same register.
func isSelfTest(in *x86.Inst) bool {
	return in.Op == x86.OpTEST && len(in.Args) == 2 &&
		in.Args[0].Kind == x86.KindReg && in.Args[1].Kind == x86.KindReg &&
		in.Args[0].Reg == in.Args[1].Reg
}

// findFlagSource walks backward from b.Insts[i] looking for the
// instruction that determines the flags test would set, subject to the
// soundness conditions above. It returns nil when no qualifying
// instruction exists.
func findFlagSource(b *cfg.BasicBlock, i int, reg x86.Reg) *ir.Node {
	testWidth := reg.Width()
	for j := i - 1; j >= 0; j-- {
		n := b.Insts[j]
		in := n.Inst
		d := dataflow.InstDefUse(in)
		if d.FlagUses != 0 {
			return nil // someone between reads flags; structure too complex
		}
		touchesReg := d.Defs.Has(reg)
		touchesFlags := d.FlagDefs != 0
		if !touchesReg && !touchesFlags {
			continue
		}
		// The first toucher must be: result-flag arithmetic, writing
		// exactly the tested register at the tested width, with fully
		// defined SF/ZF/PF.
		if !resultFlagsOps[in.Op] || d.Barrier {
			return nil
		}
		if len(in.Args) == 0 {
			return nil
		}
		dst := in.Args[len(in.Args)-1]
		if dst.Kind != x86.KindReg || dst.Reg != reg || in.Width != testWidth {
			return nil
		}
		return n
	}
	return nil
}
