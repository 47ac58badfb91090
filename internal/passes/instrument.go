package passes

import (
	"fmt"

	"mao/internal/ir"
	"mao/internal/pass"
	"mao/internal/relax"
	"mao/internal/x86"
	"mao/internal/x86/encode"
)

func init() {
	pass.Register(func() pass.Pass {
		return &instrument{base{"INSTRUMENT", "plant patchable 5-byte nops at function entry and exit points"}}
	})
}

// instrument implements the paper's III-E.l experiment: dynamic binary
// instrumentation wants to overwrite code with a 5-byte branch to
// trampoline code atomically. That is only safe if a single 5-byte
// instruction already sits at the instrumentation point and does not
// cross a cache line. The pass plants a 5-byte nop at every function
// entry and immediately before every return, padding with 1-byte nops
// when the 5-byte nop would straddle a cache-line boundary.
//
// Options: linesize[N] cache-line size (default 32).
type instrument struct{ base }

func (p *instrument) RunFunc(ctx *pass.Ctx, f *ir.Function) (bool, error) {
	lineSize := int64(ctx.Opts.Int("linesize", 32))

	// Plant the probes first: one after the entry label, one before
	// each ret.
	var probes []*ir.Node
	entry := f.EntryLabel()
	if entry == nil {
		return false, nil
	}
	probe := func(at *ir.Node, before bool) {
		n := ir.InstNode(encode.Nop(5))
		if before {
			ctx.InsertBefore(n, at)
		} else {
			ctx.InsertAfter(n, at)
		}
		probes = append(probes, n)
	}
	probe(entry, false)
	for _, n := range f.Instructions() {
		if n.Inst.Op == x86.OpRET && !n.Inst.IsNop() {
			probe(n, true)
		}
	}
	ctx.Count("entry_exit_points", len(probes))

	// Now iterate: any probe crossing a cache line gets 1-byte nops in
	// front until it fits. Each insertion can shift later probes, so
	// re-relax until stable.
	for iter := 0; iter < 64; iter++ {
		layout, err := relax.Relax(f.Unit(), &relax.Options{State: ctx.Relax})
		if err != nil {
			return true, err
		}
		moved := false
		for _, n := range probes {
			a := layout.Addr(n)
			if a/lineSize == (a+4)/lineSize {
				continue
			}
			pad := lineSize - a%lineSize // bytes to the next line start
			ctx.Trace(2, "%s: probe at %#x crosses %d-byte line; padding %d",
				f.Name, a, lineSize, pad)
			for _, nop := range encode.OneByteNops(int(pad)) {
				ctx.InsertBefore(ir.InstNode(nop), n)
			}
			ctx.Count("pad_nops", int(pad))
			moved = true
			break
		}
		if !moved {
			return true, nil
		}
	}
	return true, fmt.Errorf("INSTRUMENT: did not stabilize")
}
