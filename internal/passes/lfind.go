package passes

import (
	"fmt"
	"os"
	"path/filepath"

	"mao/internal/ir"
	"mao/internal/loops"
	"mao/internal/pass"
)

func init() {
	pass.Register(func() pass.Pass {
		return &lfind{base: base{"LFIND", "analysis: recognize loops and report the loop structure graph"}}
	})
}

// lfind is the loop-finding analysis pass used as the command-line
// example in the paper ("--mao=LFIND=trace[0]:ASM=o[/dev/null]"). It
// builds the CFG and the Havlak loop structure graph and reports what
// it found via tracing and statistics. The dot[dir] option writes
// each function's CFG in Graphviz format to dir/<function>.dot.
type lfind struct {
	base
	parallelSafe
}

func (p *lfind) RunFunc(ctx *pass.Ctx, f *ir.Function) (bool, error) {
	g := ctx.CFG(f)
	lsg := loops.Find(g)

	if dir := ctx.Opts.String("dot", ""); dir != "" {
		path := filepath.Join(dir, f.Name+".dot")
		if err := os.WriteFile(path, []byte(g.DOT()), 0o644); err != nil {
			return false, fmt.Errorf("LFIND: %w", err)
		}
		ctx.Trace(1, "wrote %s", path)
	}

	ctx.Trace(1, "Func: %s: %d blocks, %d loops", f.Name, len(g.Blocks), len(lsg.Loops))
	for _, l := range lsg.Loops {
		kind := "reducible"
		if !l.Reducible {
			kind = "IRREDUCIBLE"
		}
		ctx.Trace(2, "  loop header=%v depth=%d blocks=%d %s",
			l.Header, l.Depth, len(l.Blocks), kind)
	}

	ctx.Count("loops", len(lsg.Loops))
	ctx.Count("innermost", len(lsg.InnerLoops()))
	for _, l := range lsg.Loops {
		if !l.Reducible {
			ctx.Count("irreducible", 1)
		}
	}
	if f.Unresolved {
		ctx.Count("unresolved_functions", 1)
	}
	return false, nil
}
