package passes

import (
	"fmt"
	"sort"

	"mao/internal/ir"
	"mao/internal/loops"
	"mao/internal/pass"
	"mao/internal/relax"
	"mao/internal/x86"
	"mao/internal/x86/encode"
)

func init() {
	pass.Register(func() pass.Pass {
		return &loop16{base{"LOOP16", "align short loops to 16-byte decode-line boundaries"}}
	})
	pass.Register(func() pass.Pass {
		return &lsdFit{base{"LSD", "fit hot loops into the Loop Stream Detector's decode-line window"}}
	})
	pass.Register(func() pass.Pass {
		return &brAlign{base{"BRALIGN", "separate branches aliasing in PC>>5-indexed predictor buckets"}}
	})
}

// loopExtent computes a loop's [start, end) address range, requiring a
// contiguous body. ok is false for non-contiguous or empty loops.
func loopExtent(l *loops.Loop, layout *relax.Layout) (start, end int64, ok bool) {
	blocks := l.AllBlocks()
	if len(blocks) == 0 || l.Header == nil {
		return 0, 0, false
	}
	start, end = -1, -1
	var covered int64
	for _, b := range blocks {
		for _, n := range b.Insts {
			a := layout.Addr(n)
			ln := int64(layout.Len(n))
			if start == -1 || a < start {
				start = a
			}
			if a+ln > end {
				end = a + ln
			}
			covered += ln
		}
	}
	if start < 0 || end <= start {
		return 0, 0, false
	}
	// Contiguity: the loop's instructions must fill the whole range
	// (labels and non-emitting directives occupy no bytes).
	if covered != end-start {
		return 0, 0, false
	}
	return start, end, true
}

// headerLabelNode finds the IR label node of the loop header.
func headerLabelNode(f *ir.Function, l *loops.Loop) *ir.Node {
	if l.Header == nil || l.Header.Label == "" {
		return nil
	}
	return f.Unit().FindLabel(l.Header.Label)
}

// loop16 implements the paper's III-C.e optimization. The Core-2
// front end decodes instructions in 16-byte chunks; a short loop body
// crossing a 16-byte boundary decodes as two lines instead of one,
// which degraded 252.eon by 7% between GCC releases. Aligning short
// loops to 16 bytes restores single-line decode.
//
// Options: size[N] maximum body size to align (default 16).
type loop16 struct{ base }

// RunUnit relaxes the unit once and processes every function against
// that layout. Insertions shift later code, but the inserted alignment
// directives are self-correcting, and the misalignment decision is a
// heuristic anyway — one relaxation per invocation keeps the pass
// linear in unit size (relaxing per function would be quadratic).
// Every alignment is decided before any is inserted: an edit by a unit
// pass drops every function's analyses, so the graphs are all read
// first.
func (p *loop16) RunUnit(ctx *pass.Ctx) (bool, error) {
	maxSize := int64(ctx.Opts.Int("size", 16))

	layout, err := relax.Relax(ctx.Unit, &relax.Options{State: ctx.Relax})
	if err != nil {
		return false, err
	}

	var heads []*ir.Node
	for _, f := range ctx.Unit.Functions() {
		lsg := loops.Find(ctx.CFG(f))
		for _, l := range lsg.InnerLoops() {
			head := headerLabelNode(f, l)
			if head == nil {
				continue
			}
			start, end, ok := loopExtent(l, layout)
			if !ok || end-start > maxSize {
				continue
			}
			if start%16 == 0 {
				continue // already aligned
			}
			if prev := head.Prev(); prev != nil {
				if _, isAlign := prev.IsAlignDirective(); isAlign {
					continue // already explicitly aligned
				}
			}
			ctx.Trace(2, "%s: aligning loop %s (size %d, at %#x)", f.Name, l.Header, end-start, start)
			heads = append(heads, head)
		}
	}
	for _, head := range heads {
		ctx.InsertBefore(ir.DirectiveNode(".p2align", "4"), head)
		ctx.Count("aligned", 1)
	}
	return len(heads) > 0, nil
}

// lsdFit implements the paper's III-C.f optimization. The Loop Stream
// Detector streams loops from a small buffer, bypassing fetch and
// decode, but only if the loop spans at most four 16-byte decode
// lines (and runs enough iterations, with simple branching — dynamic
// conditions the static pass cannot see). A loop whose size would fit
// four lines but whose placement straddles five or six gets NOPs
// inserted before it to shift it into a window; the paper's Figure 4/5
// example gains 2x from exactly this.
//
// Options: lines[N] decode-line budget (default 4), linesize[N]
// (default 16).
type lsdFit struct{ base }

func (p *lsdFit) RunFunc(ctx *pass.Ctx, f *ir.Function) (bool, error) {
	maxLines := int64(ctx.Opts.Int("lines", 4))
	lineSize := int64(ctx.Opts.Int("linesize", 16))

	changed := false
	fixed := map[string]bool{}
	// Fixing one loop shifts everything after it, so re-relax and
	// re-scan until no fixable loop remains.
	for iter := 0; iter < 32; iter++ {
		layout, err := relax.Relax(f.Unit(), &relax.Options{State: ctx.Relax})
		if err != nil {
			return changed, err
		}
		lsg := loops.Find(ctx.CFG(f))

		inner := lsg.InnerLoops()
		sort.Slice(inner, func(i, j int) bool {
			hi, hj := headerLabelNode(f, inner[i]), headerLabelNode(f, inner[j])
			if hi == nil || hj == nil {
				return hi != nil
			}
			return layout.Addr(hi) < layout.Addr(hj)
		})

		again := false
		for _, l := range inner {
			head := headerLabelNode(f, l)
			if head == nil || fixed[l.Header.Label] {
				continue
			}
			start, end, ok := loopExtent(l, layout)
			if !ok {
				continue
			}
			size := end - start
			spans := func(s int64) int64 { return (s%lineSize+size-1)/lineSize + 1 }
			if spans(start) <= maxLines {
				continue
			}
			// Find the smallest shift bringing the loop into budget.
			shift := int64(-1)
			for k := int64(1); k < lineSize; k++ {
				if spans(start+k) <= maxLines {
					shift = k
					break
				}
			}
			fixed[l.Header.Label] = true
			if shift < 0 {
				ctx.Trace(2, "%s: loop %s too large for %d lines (size %d)",
					f.Name, l.Header, maxLines, size)
				continue
			}
			ctx.Trace(2, "%s: shifting loop %s by %d nops (%d -> %d lines)",
				f.Name, l.Header, shift, spans(start), spans(start+shift))
			for _, nop := range encode.OneByteNops(int(shift)) {
				ctx.InsertBefore(ir.InstNode(nop), head)
			}
			ctx.Count("shifted", 1)
			ctx.Count("nops", int(shift))
			changed = true
			again = true
			break // re-relax before judging later loops
		}
		if !again {
			return changed, nil
		}
	}
	return changed, fmt.Errorf("LSD: did not stabilize")
}

// brAlign implements the paper's III-C.g optimization. On many Intel
// platforms branch-predictor structures are indexed by PC>>5, so two
// back branches inside the same 32-byte bucket share prediction state;
// with two short-running nested loops this aliasing confuses the
// predictor constantly. The pass moves the second branch into the next
// bucket by inserting NOPs in front of it.
//
// Options: shift[N] index shift (default 5).
type brAlign struct{ base }

func (p *brAlign) RunFunc(ctx *pass.Ctx, f *ir.Function) (bool, error) {
	shift := uint(ctx.Opts.Int("shift", 5))
	bucket := func(a int64) int64 { return a >> shift }

	changed := false
	for iter := 0; iter < 32; iter++ {
		layout, err := relax.Relax(f.Unit(), &relax.Options{State: ctx.Relax})
		if err != nil {
			return changed, err
		}

		// Collect conditional back branches in address order.
		var backs []*ir.Node
		for _, n := range f.Instructions() {
			in := n.Inst
			if in.Op != x86.OpJCC {
				continue
			}
			tgt, ok := in.BranchTarget()
			if !ok {
				continue
			}
			taddr, known := layout.SymAddr(tgt)
			if known && taddr <= layout.Addr(n) {
				backs = append(backs, n)
			}
		}
		sort.Slice(backs, func(i, j int) bool { return layout.Addr(backs[i]) < layout.Addr(backs[j]) })

		again := false
		for i := 1; i < len(backs); i++ {
			a, b := layout.Addr(backs[i-1]), layout.Addr(backs[i])
			if bucket(a) != bucket(b) {
				continue
			}
			pad := (bucket(b)+1)<<shift - b
			ctx.Trace(2, "%s: branches at %#x/%#x alias (bucket %d); padding %d",
				f.Name, a, b, bucket(a), pad)
			for _, nop := range encode.OneByteNops(int(pad)) {
				ctx.InsertBefore(ir.InstNode(nop), backs[i])
			}
			ctx.Count("separated", 1)
			ctx.Count("nops", int(pad))
			changed = true
			again = true
			break
		}
		if !again {
			return changed, nil
		}
	}
	return changed, fmt.Errorf("BRALIGN: did not stabilize")
}
