package pass

import (
	"sync"
	"sync/atomic"

	"mao/internal/cfg"
	"mao/internal/dataflow"
	"mao/internal/ir"
)

// analyses is one run's table of function analyses: each function's
// CFG, liveness and reaching definitions, computed on first request and
// handed out again until a Ctx helper edits the function. The manager
// makes one per run and shares it with every context of the run, the
// parallel workers' included; NewCtx contexts get their own. Nothing in
// it outlives the run. A nil table is valid and hands out a fresh
// analysis on every request.
//
// Two rules keep a handed-out analysis equal to a fresh one:
//
//   - Every Ctx mutation helper drops the entry of the function it
//     edits: the function the manager runs the context on, or every
//     entry when the context runs on no function (a unit pass, NewCtx).
//   - A pass treats a handed-out graph as read-only until it first edits
//     that function through a helper. From then on the entry is gone,
//     and the graph and the answers computed from it are the pass's own
//     (REDMOV, ADDADD, CONSTFOLD and SCHED splice b.Insts only after
//     such an edit).
//
// Edits made without the helpers bypass the first rule. The table
// counts the list-version bumps its helpers make, as relax.State does,
// and between invocations drops every entry when the list moved by
// more: a pass that edits the list directly loses reuse, not
// correctness.
type analyses struct {
	mu sync.Mutex
	m  map[*ir.Function]funcAnalyses

	list      *ir.List
	base      int64        // list version at the last resync
	accounted atomic.Int64 // version bumps the helpers made since then
}

// funcAnalyses is one function's entry: its graph, and the analyses
// computed over that graph so far.
type funcAnalyses struct {
	g     *cfg.Graph
	live  *dataflow.Liveness
	reach *dataflow.ReachingDefs
}

// Test seams, set only by tests (export_test.go): onBuild sees every
// analysis the table computes ("cfg", "live", "reach"), onReuse every
// entry it hands out again.
var (
	onBuild func(kind string)
	onReuse func(f *ir.Function, e funcAnalyses)
)

func newAnalyses(u *ir.Unit) *analyses {
	return &analyses{list: &u.List, base: u.List.Version()}
}

// resync drops every entry when the list was edited other than through
// the helpers since the last call. The manager calls it between
// invocations, where no context is running.
func (t *analyses) resync() {
	v := t.list.Version()
	if v != t.base+t.accounted.Load() {
		t.mu.Lock()
		clear(t.m)
		t.mu.Unlock()
	}
	t.base = v
	t.accounted.Store(0)
}

// edited records a helper's edit: bumps list-version increments,
// charged to f, or to every function when f is nil.
func (t *analyses) edited(f *ir.Function, bumps int64) {
	if t == nil {
		return
	}
	t.accounted.Add(bumps)
	t.mu.Lock()
	if f == nil {
		clear(t.m)
	} else {
		delete(t.m, f)
	}
	t.mu.Unlock()
}

// of returns f's entry with its graph and, when asked, its liveness and
// reaching definitions, computing what the entry lacks.
func (t *analyses) of(f *ir.Function, live, reach bool) funcAnalyses {
	var e funcAnalyses
	if t != nil {
		t.mu.Lock()
		e = t.m[f]
		t.mu.Unlock()
	}
	store := false
	if e.g == nil {
		e = funcAnalyses{g: cfg.Build(f)}
		built("cfg")
		store = true
	} else {
		if onReuse != nil {
			onReuse(f, e)
		}
		// Building a graph flags f; a reused one restates its flag.
		f.Unresolved = len(e.g.Unresolved) > 0
	}
	if live && e.live == nil {
		e.live = dataflow.Live(e.g)
		built("live")
		store = true
	}
	if reach && e.reach == nil {
		e.reach = dataflow.Reach(e.g)
		built("reach")
		store = true
	}
	if store && t != nil {
		t.mu.Lock()
		if t.m == nil {
			t.m = make(map[*ir.Function]funcAnalyses, len(f.Unit().Functions()))
		}
		t.m[f] = e
		t.mu.Unlock()
	}
	return e
}

func built(kind string) {
	if onBuild != nil {
		onBuild(kind)
	}
}

// CFG returns f's control-flow graph (cfg.Build), built on first
// request and handed out again while no helper edits f. The graph is
// read-only to the pass until the pass edits f through a helper.
func (c *Ctx) CFG(f *ir.Function) *cfg.Graph { return c.an.of(f, false, false).g }

// Live returns the liveness of f over CFG(f), under the same rules.
func (c *Ctx) Live(f *ir.Function) *dataflow.Liveness { return c.an.of(f, true, false).live }

// Reach returns the reaching definitions of f over CFG(f), under the
// same rules.
func (c *Ctx) Reach(f *ir.Function) *dataflow.ReachingDefs {
	return c.an.of(f, false, true).reach
}
