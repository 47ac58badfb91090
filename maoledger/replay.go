package main

import (
	"fmt"
	"strings"
	"time"

	"mao/internal/asm"
	"mao/internal/cachekey"
	"mao/internal/check"
	"mao/internal/ir"
	"mao/internal/memo"
	"mao/internal/pass"
	_ "mao/internal/passes" // register the pass catalog
	"mao/internal/relax"
	"mao/internal/trace"
	"mao/internal/verify"
)

// span is one timed call into a module, recorded by the benchmark
// around the module's public function.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a request root
	Req    int    `json:"req"`    // request index in the replayed sequence
	Alloc  uint64 `json:"alloc_bytes"`
}

// tracer keeps spans in memory. A nil tracer records nothing, which is
// the untraced replay the tracing overhead is measured against.
type tracer struct {
	epoch time.Time
	spans []span
	cur   int
	req   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), cur: -1} }

// allocSpans are the spans whose allocation is reported; reading the
// runtime's allocation counter costs more than a clock read, so other
// spans skip it.
var allocSpans = map[string]bool{
	"asm.parse": true, "pass.pipeline": true, "relax": true,
	"verify.snapshot": true, "verify.equiv": true,
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	s := span{Name: name, Parent: t.cur, Req: t.req}
	if allocSpans[name] {
		s.Alloc = heapAllocs()
	}
	s.Start = time.Since(t.epoch).Nanoseconds()
	t.spans = append(t.spans, s)
	t.cur = len(t.spans) - 1
	return t.cur
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	s := &t.spans[i]
	s.End = time.Since(t.epoch).Nanoseconds()
	if allocSpans[s.Name] {
		s.Alloc = heapAllocs() - s.Alloc
	}
	t.cur = s.Parent
}

// replayer drives units through the public calls serve.runJob makes,
// in its order, with the state one maod shard keeps across requests:
// a result-cache key set, a pipeline memo, and a relaxation cache.
type replayer struct {
	spec   string
	passes []string
	local  bool // memo keys per function (all passes function-local)
	t      *tracer

	memo    *memo.Memo
	results map[string]bool
	cache   *relax.Cache
	state   *relax.State

	applied          map[string]int // per-pass transformation counts
	proved, verdicts int            // verify outcomes, per function
	nodes            int            // IR nodes parsed
}

func newReplayer(spec string, t *tracer) *replayer {
	passes := strings.Split(spec, ":")
	local := true
	for _, name := range passes {
		p := pass.Lookup(name)
		_, fn := p.(pass.FuncPass)
		ps, ok := p.(pass.ParallelSafe)
		local = local && fn && ok && ps.ParallelSafe()
	}
	return &replayer{
		spec: spec, passes: passes, local: local, t: t,
		memo:    memo.New(0, pass.CatalogVersion(), check.Version, verify.Version),
		results: map[string]bool{},
		cache:   relax.NewCacheLimits(0, 0),
		state:   relax.NewState(),
		applied: map[string]int{},
	}
}

// replay runs every request of reqs (every unit of an archive) and
// returns the optimized assembly per unit; "" marks a result-cache hit.
func (r *replayer) replay(reqs []request, checkVerify bool) ([][]string, error) {
	out := make([][]string, len(reqs))
	for i, req := range reqs {
		if r.t != nil {
			r.t.req = i
		}
		root := r.t.begin("request")
		for _, u := range req.Units {
			a, err := r.job(u, checkVerify)
			if err != nil {
				return nil, fmt.Errorf("replaying %s: %w", u.Name, err)
			}
			out[i] = append(out[i], a)
		}
		r.t.end(root)
	}
	return out, nil
}

// job replays one unit. Spans: cachekey.key, asm.parse, memo.plan,
// memo.lookup, memo.splice (on a hit) or pass.pipeline with one
// passes.<P> per pass (plus verify.snapshot and verify.equiv around
// each under verify) and memo.fill, then ir.analyze, ir.emit,
// check.unit, and two calls off the service path: trace.collector
// (the span collection the shard does per request, replayed) and
// relax (relax.Relax of the optimized unit).
func (r *replayer) job(u unit, checkVerify bool) (string, error) {
	t := r.t
	sp := t.begin("cachekey.key")
	key := cachekey.Key(cachekey.Request{Name: u.Name, Source: u.Source, Spec: r.spec, Check: checkVerify, Verify: checkVerify})
	t.end(sp)
	if r.results[key] {
		return "", nil
	}

	sp = t.begin("asm.parse")
	pu, err := asm.ParseString(u.Name, u.Source)
	t.end(sp)
	if err != nil {
		return "", err
	}
	r.nodes += pu.List.Len()

	// maod bypasses the memo under verify: the certifier must observe
	// every pass invocation.
	var plan *memo.Plan
	hit := false
	if !checkVerify {
		sp = t.begin("memo.plan")
		plan = r.memo.NewPlan(pu, r.spec, r.local)
		t.end(sp)
		sp = t.begin("memo.lookup")
		h, ok := r.memo.Lookup(plan)
		t.end(sp)
		if ok {
			sp = t.begin("memo.splice")
			_, err := h.Splice(pu)
			t.end(sp)
			if err != nil {
				return "", err
			}
			hit = true
		}
	}
	col := trace.NewCollector()
	if !hit {
		pipe := t.begin("pass.pipeline")
		for _, p := range r.passes {
			if err := r.runPass(pu, p, col, checkVerify); err != nil {
				return "", err
			}
		}
		t.end(pipe)
		if plan != nil {
			sp = t.begin("memo.fill")
			r.memo.Fill(plan, pu)
			t.end(sp)
		}
	}

	sp = t.begin("ir.analyze")
	err = pu.Analyze()
	t.end(sp)
	if err != nil {
		return "", err
	}
	sp = t.begin("ir.emit")
	out := pu.String()
	t.end(sp)
	if checkVerify {
		sp = t.begin("check.unit")
		check.CheckUnit(pu)
		t.end(sp)
	}

	sp = t.begin("trace.collector")
	replayCollector(col)
	t.end(sp)
	sp = t.begin("relax")
	_, err = relax.Relax(pu, nil)
	t.end(sp)
	r.results[key] = true
	return out, err
}

// runPass runs one pass through its own pass.Manager, configured as a
// shard configures its manager, and translation-validates it when asked.
func (r *replayer) runPass(pu *ir.Unit, name string, col *trace.Collector, validate bool) error {
	t := r.t
	var before *ir.Unit
	if validate {
		sp := t.begin("verify.snapshot")
		var err error
		before, err = pu.Clone()
		t.end(sp)
		if err != nil {
			return err
		}
	}
	sp := t.begin("passes." + name)
	mgr, err := pass.NewManager(name)
	if err != nil {
		t.end(sp)
		return err
	}
	mgr.Workers = 1
	mgr.Cache = r.cache
	mgr.RelaxState = r.state
	mgr.Tracer = col
	stats, err := mgr.Run(pu)
	t.end(sp)
	if err != nil {
		return err
	}
	r.applied[name] += stats.Total(name)
	if validate {
		sp = t.begin("verify.equiv")
		res := verify.Equiv(before, pu, nil)
		t.end(sp)
		r.proved += res.Counts()[verify.StatusProved]
		r.verdicts += len(res.Funcs)
		if !res.Clean() {
			return fmt.Errorf("%s refuted", name)
		}
	}
	return nil
}

// replayCollector repeats the span collection a shard performs for one
// request: every span added and finished, then snapshotted.
func replayCollector(col *trace.Collector) {
	c := trace.NewCollector()
	for _, s := range col.Spans() {
		i := c.Add(s)
		c.Update(i, func(*trace.Span) {})
	}
	c.Spans()
}

// layerTotals aggregates spans by name.
type layerTotals struct {
	calls      int
	self, incl time.Duration
	selfAlloc  uint64
	inclAlloc  uint64
	verifyIn   time.Duration // pass.pipeline only: time of its verify.* children
	verifyAl   uint64
}

// aggregate computes every span name's call count and self time (its
// duration minus its direct children's) and self allocation.
func aggregate(spans []span) map[string]*layerTotals {
	childDur := make([]int64, len(spans))
	childAlloc := make([]uint64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			childDur[s.Parent] += s.End - s.Start
			childAlloc[s.Parent] += s.Alloc
		}
	}
	out := map[string]*layerTotals{}
	for i, s := range spans {
		l := out[s.Name]
		if l == nil {
			l = &layerTotals{}
			out[s.Name] = l
		}
		l.calls++
		l.incl += time.Duration(s.End - s.Start)
		l.self += time.Duration(s.End - s.Start - childDur[i])
		l.inclAlloc += s.Alloc
		l.selfAlloc += s.Alloc - min(s.Alloc, childAlloc[i])
		if s.Parent >= 0 && spans[s.Parent].Name == "pass.pipeline" && strings.HasPrefix(s.Name, "verify.") {
			p := out["pass.pipeline"]
			p.verifyIn += time.Duration(s.End - s.Start)
			p.verifyAl += s.Alloc
		}
	}
	return out
}
