package passes

import (
	"cmp"
	"slices"

	"mao/internal/cfg"
	"mao/internal/dataflow"
	"mao/internal/ir"
	"mao/internal/pass"
	"mao/internal/x86"
)

func init() {
	pass.Register(func() pass.Pass {
		return &sched{base: base{"SCHED", "list scheduling within basic blocks (critical-path cost function)"}}
	})
}

// sched implements the paper's Section III-F scheduling pass: a
// framework for list scheduling at the assembly instruction level
// within single basic blocks. Changing the cost function implements
// different heuristics; the default cost function ensures that, when
// scheduling successors of an instruction with multiple fan-outs, the
// instructions on the critical path are given a higher priority. In
// the paper this recovered 15% on a hashing microbenchmark whose
// degradation correlated with RESOURCE_STALLS:RS_FULL — a result-
// forwarding bandwidth limitation.
//
// Options:
//
//	costfn[critpath|naive|ports]  scheduling heuristic (default critpath)
type sched struct {
	base
	parallelSafe
}

// schedLatency is the scheduler's static latency estimate per opcode —
// deliberately coarse; the point of the pass is relative priority, not
// cycle accuracy.
func schedLatency(in *x86.Inst) int {
	switch in.Op {
	case x86.OpIMUL, x86.OpMUL:
		return 3
	case x86.OpIDIV, x86.OpDIV:
		return 20
	case x86.OpADDSS, x86.OpADDSD, x86.OpSUBSS, x86.OpSUBSD:
		return 3
	case x86.OpMULSS, x86.OpMULSD:
		return 5
	case x86.OpDIVSS, x86.OpDIVSD, x86.OpSQRTSS, x86.OpSQRTSD:
		return 20
	case x86.OpCVTSI2SS, x86.OpCVTSI2SD, x86.OpCVTTSS2SI, x86.OpCVTTSD2SI:
		return 4
	}
	if in.ReadsMemory() {
		return 4 // L1 load-to-use
	}
	return 1
}

// schedPorts returns the execution ports an instruction can issue to,
// as a mask with bit p set for port p, mirroring the paper's Core-2
// observation that lea executes only on port 0 while shifts execute on
// ports 0 and 5.
func schedPorts(in *x86.Inst) uint8 {
	switch {
	case in.Op == x86.OpLEA:
		return 1 << 0
	case in.Op == x86.OpSHL || in.Op == x86.OpSHR || in.Op == x86.OpSAR ||
		in.Op == x86.OpROL || in.Op == x86.OpROR:
		return 1<<0 | 1<<5
	case in.ReadsMemory():
		return 1 << 2
	case in.WritesMemory():
		return 1 << 3
	case in.Op.IsSSE():
		return 1<<0 | 1<<1
	default:
		return 1<<0 | 1<<1 | 1<<5
	}
}

type depNode struct {
	node    *ir.Node
	index   int // original position
	succs   []int
	height  int // critical-path length to block end
	latency int
}

func (p *sched) RunFunc(ctx *pass.Ctx, f *ir.Function) (bool, error) {
	costFn := ctx.Opts.String("costfn", "critpath")

	g := ctx.CFG(f)
	live := ctx.Live(f)
	changed := false
	for _, b := range g.Blocks {
		if p.scheduleBlock(ctx, f, b, costFn, live) {
			changed = true
		}
	}
	return changed, nil
}

// scheduleBlock reorders one block's instructions respecting all
// dependences. The terminator (and anything after a barrier structure
// we refuse to move) stays in place.
func (p *sched) scheduleBlock(ctx *pass.Ctx, f *ir.Function, b *cfg.BasicBlock, costFn string, live *dataflow.Liveness) bool {
	insts := b.Insts
	// Exclude the terminator from scheduling.
	n := len(insts)
	if term := b.Terminator(); term != nil {
		n--
	}
	if n < 3 {
		return false
	}
	body := insts[:n]

	// Refuse blocks containing barriers or unknown-effect
	// instructions — not worth the risk for a micro-architectural
	// pass. Each instruction's def-use sets are computed once here;
	// the dependence analysis below reads them per pair.
	du := make([]dataflow.DefUse, n)
	nodes := make([]depNode, n)
	for i, x := range body {
		du[i] = dataflow.InstDefUse(x.Inst)
		if du[i].Barrier {
			return false
		}
		nodes[i] = depNode{node: x, index: i, latency: schedLatency(x.Inst)}
	}

	// Flag defs are overwhelmingly dead on x86 (every ALU op writes
	// them); serializing all flag writers would forbid any useful
	// schedule. A flag def is LIVE only when the next flag-touching
	// instruction after it (in original order) — or the terminator /
	// a successor block — READS flags; a def followed first by
	// another writer is dead and needs no WAW ordering. Every writer
	// still gets an edge to each live def after it, keeping the
	// consumed def last.
	flagsLiveAfterBody := x86.Flags(0)
	if n > 0 {
		flagsLiveAfterBody = live.FlagsLiveOut(body[n-1])
	}
	liveFlagDef := make([]bool, n)
	pendingReader := flagsLiveAfterBody != 0
	for i := n - 1; i >= 0; i-- {
		d := &du[i]
		liveFlagDef[i] = d.FlagDefs != 0 && pendingReader
		if d.FlagUses != 0 {
			pendingReader = true
		} else if d.FlagDefs != 0 {
			pendingReader = false
		}
	}

	// Dependence edges. Memory: loads may reorder among themselves;
	// any store serializes against all other memory operations
	// (syntactic model, no alias analysis). Each pair (i, j) is
	// visited once, so counting predecessors needs no deduplication.
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		di := &du[i]
		for j := i + 1; j < n; j++ {
			dj := &du[j]
			raw := di.Defs&dj.Uses != 0 || di.FlagDefs&dj.FlagUses != 0
			war := di.Uses&dj.Defs != 0 || di.FlagUses&dj.FlagDefs != 0
			waw := di.Defs&dj.Defs != 0 ||
				(di.FlagDefs&dj.FlagDefs != 0 && liveFlagDef[j])
			mem := (di.MemDef && (dj.MemUse || dj.MemDef)) ||
				(di.MemUse && dj.MemDef)
			if raw || war || waw || mem {
				indeg[j]++
				nodes[i].succs = append(nodes[i].succs, j)
			}
		}
	}

	// Critical-path heights (backward).
	for i := n - 1; i >= 0; i-- {
		h := nodes[i].latency
		for _, s := range nodes[i].succs {
			if v := nodes[i].latency + nodes[s].height; v > h {
				h = v
			}
		}
		nodes[i].height = h
	}

	// List scheduling.
	var ready []int
	for i, d := range indeg {
		if d == 0 {
			ready = append(ready, i)
		}
	}
	order := make([]int, 0, n)
	var portBusy uint8 // ports taken in the current issue group
	groupSize := 0
	const issueWidth = 3

	for len(ready) > 0 {
		// Every cost function is a strict total order (ties fall to the
		// original index), so the schedule does not depend on the sort.
		slices.SortFunc(ready, func(a, c int) int {
			x, y := &nodes[a], &nodes[c]
			switch costFn {
			case "naive":
				return cmp.Compare(x.index, y.index)
			case "ports":
				// Prefer instructions whose ports are free this
				// group, then critical path.
				fx, fy := portFree(portBusy, x.node.Inst), portFree(portBusy, y.node.Inst)
				if fx != fy {
					if fx {
						return -1
					}
					return 1
				}
				fallthrough
			default: // critpath
				if x.height != y.height {
					return cmp.Compare(y.height, x.height)
				}
				return cmp.Compare(x.index, y.index)
			}
		})
		pick := ready[0]
		ready = ready[1:]
		order = append(order, pick)

		if costFn == "ports" {
			if free := schedPorts(nodes[pick].node.Inst) &^ portBusy; free != 0 {
				portBusy |= free & -free // the lowest free port
			}
			groupSize++
			if groupSize == issueWidth {
				groupSize = 0
				portBusy = 0
			}
		}
		for _, s := range nodes[pick].succs {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}

	// Count movement and rebuild the block if anything moved.
	moved := 0
	for pos, idx := range order {
		if idx != pos {
			moved++
		}
	}
	if moved == 0 {
		return false
	}
	ctx.Count("moved", moved)
	ctx.Trace(2, "%s: block %v: reordered %d of %d instructions", f.Name, b, moved, n)

	// Relink IR nodes in the new order, anchored before the node that
	// followed the last body instruction.
	var anchor *ir.Node
	if n < len(insts) {
		anchor = insts[n] // the terminator
	} else {
		anchor = body[n-1].Next()
	}
	newBody := make([]*ir.Node, 0, n)
	for _, idx := range order {
		x := nodes[idx].node
		if anchor != nil {
			ctx.MoveBefore(x, anchor)
		} else {
			ctx.MoveToEnd(x)
		}
		newBody = append(newBody, x)
	}
	b.Insts = append(newBody, insts[n:]...)
	return true
}

// portFree reports whether any of the instruction's ports is free.
func portFree(busy uint8, in *x86.Inst) bool { return schedPorts(in)&^busy != 0 }
