// Package pass implements MAO's pass framework: a registry of named
// optimization and analysis passes, per-pass options, a tracing
// facility, transformation statistics, and a manager that runs a
// ':'-separated pass pipeline parsed from the MAO command-line syntax
//
//	--mao=LFIND=trace[2]:REDTEST:ASM=o[out.s]
//
// Passes come in two kinds, mirroring the original: function passes,
// invoked once per identified function, and unit passes, which process
// the whole IR (reading input and emitting output are unit passes).
package pass

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"mao/internal/ir"
	"mao/internal/memo"
	"mao/internal/relax"
	"mao/internal/trace"
)

// Pass is the common interface of all passes.
type Pass interface {
	// Name is the registry key, canonically upper-case (e.g. "REDTEST").
	Name() string
	// Description is a one-line summary shown by pass listings.
	Description() string
}

// FuncPass is a pass invoked for every function in the unit.
type FuncPass interface {
	Pass
	// RunFunc transforms one function, reporting whether it changed
	// anything.
	RunFunc(ctx *Ctx, f *ir.Function) (changed bool, err error)
}

// UnitPass is a pass invoked once for the whole unit.
type UnitPass interface {
	Pass
	RunUnit(ctx *Ctx) (changed bool, err error)
}

// ParallelSafe marks a FuncPass whose RunFunc reads and mutates only
// the span of the function it is given — no whole-unit relaxation, no
// cross-function state, deterministic output per function. The manager
// fans such passes out across its worker pool; every other FuncPass
// runs function-at-a-time in file order. Passes that consult unit-wide
// layout addresses (LSD, BRALIGN, INSTRUMENT) must not implement it:
// their decisions for one function depend on the sizes of all the
// others, so concurrent mutation would be nondeterministic.
type ParallelSafe interface {
	ParallelSafe() bool
}

func isParallelSafe(p Pass) bool {
	ps, ok := p.(ParallelSafe)
	return ok && ps.ParallelSafe()
}

// Ctx carries everything a pass invocation can reach: the unit, the
// parsed options of this invocation, tracing, and the statistics
// sink.
type Ctx struct {
	Unit  *ir.Unit
	Opts  *Options
	Stats *Stats

	// TraceW receives trace output; nil silences tracing regardless
	// of level.
	TraceW io.Writer

	// Relax is the invocation's reusable relaxation state. Passes that
	// relax internally (LOOP16, LSD, BRALIGN, INSTRUMENT) thread it
	// into their relax.Options, so probe loops — relax, edit, relax
	// again — rescan only the fragments each edit touched instead of
	// re-walking the unit.
	// The Ctx mutation helpers keep it notified of edits; a nil state
	// is valid everywhere and simply disables incrementality.
	Relax *relax.State

	// an is the table CFG, Live and Reach answer from; fn is the
	// function the manager runs this context on (nil for a unit pass or
	// a NewCtx context), the one the mutation helpers charge edits to.
	an *analyses
	fn *ir.Function

	ctx       context.Context
	passName  string
	passIndex int
}

// Context returns the context of the pipeline run this invocation
// belongs to (context.Background for programmatic invocations built
// with NewCtx). Long-running passes should poll it and abort early
// when it is done; the manager itself checks it between passes and
// between functions.
func (c *Ctx) Context() context.Context {
	if c.ctx == nil {
		return context.Background()
	}
	return c.ctx
}

// NewCtx builds a pass invocation context for programmatic invocation
// outside a Manager pipeline — e.g. for passes that need data injected
// on the instance (SIMADDR samples, PREFNTA profiles) before running.
func NewCtx(u *ir.Unit, passName string, opts *Options, stats *Stats) *Ctx {
	return &Ctx{
		Unit: u, Opts: opts, Stats: stats,
		Relax:     relax.NewState(),
		an:        newAnalyses(u),
		passName:  passName,
		passIndex: -1,
	}
}

// Trace emits a trace record when the invocation's trace level is at
// least level. Every line of the record — including the continuation
// lines of a multi-line payload — carries the "[NAME]" prefix, and the
// whole record is emitted in a single Write. The two together keep
// traces attributable under concurrency: a pass tracing across
// functions from worker goroutines can never interleave partial or
// unprefixed lines into another worker's output, whether it writes to
// the manager's per-function buffer or to a shared writer.
func (c *Ctx) Trace(level int, format string, args ...any) {
	if c.TraceW == nil || c.Opts.TraceLevel() < level {
		return
	}
	msg := fmt.Sprintf(format, args...)
	var b strings.Builder
	for first := true; first || msg != ""; first = false {
		line := msg
		if i := strings.IndexByte(msg, '\n'); i >= 0 {
			line, msg = msg[:i], msg[i+1:]
		} else {
			msg = ""
		}
		b.WriteByte('[')
		b.WriteString(c.passName)
		b.WriteString("] ")
		b.WriteString(line)
		b.WriteByte('\n')
	}
	io.WriteString(c.TraceW, b.String())
}

// syncWriter serializes Write calls to the manager's trace sink. The
// manager routes every context it hands out through one (or through a
// per-function buffer in the parallel path), so trace records from
// concurrent writers append atomically instead of interleaving.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// Count adds n to the named statistic of the current pass (e.g. the
// number of patterns rewritten — the data behind the paper's Figure 7).
func (c *Ctx) Count(key string, n int) {
	if c.Stats != nil {
		c.Stats.Add(c.passName, key, n)
	}
}

// Stats accumulates per-pass counters across a pipeline run. A Stats
// is not safe for concurrent use; the parallel manager gives every
// worker a private sink and merges them deterministically afterwards
// (counter addition is commutative, so the merged totals are identical
// at any worker count).
type Stats struct {
	counters map[string]map[string]int
}

// NewStats returns an empty statistics sink.
func NewStats() *Stats { return &Stats{counters: make(map[string]map[string]int)} }

// Add increments pass/key by n.
func (s *Stats) Add(pass, key string, n int) {
	m := s.counters[pass]
	if m == nil {
		m = make(map[string]int)
		s.counters[pass] = m
	}
	m[key] += n
}

// Get returns the value of pass/key.
func (s *Stats) Get(pass, key string) int { return s.counters[pass][key] }

// Merge adds every counter of o into s.
func (s *Stats) Merge(o *Stats) {
	if o == nil {
		return
	}
	for p, m := range o.counters {
		for k, v := range m {
			s.Add(p, k, v)
		}
	}
}

// Map returns a deep copy of all counters as pass → key → count.
// The snapshot is independent of s (callers may serialize it — e.g.
// the optimization service returns it as the per-request stats JSON —
// while the pipeline keeps counting).
func (s *Stats) Map() map[string]map[string]int {
	out := make(map[string]map[string]int, len(s.counters))
	for p, m := range s.counters {
		cp := make(map[string]int, len(m))
		for k, v := range m {
			cp[k] = v
		}
		out[p] = cp
	}
	return out
}

// Total returns the sum of all counters of one pass.
func (s *Stats) Total(pass string) int {
	t := 0
	for _, v := range s.counters[pass] {
		t += v
	}
	return t
}

// String renders all counters deterministically.
func (s *Stats) String() string {
	var passes []string
	for p := range s.counters {
		passes = append(passes, p)
	}
	sort.Strings(passes)
	var b strings.Builder
	for _, p := range passes {
		var keys []string
		for k := range s.counters[p] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "%s.%s = %d\n", p, k, s.counters[p][k])
		}
	}
	return b.String()
}

// Options holds one pass invocation's key/value options.
type Options struct{ m map[string]string }

// NewOptions builds an option set from explicit pairs (tests and
// programmatic invocation).
func NewOptions(pairs ...string) *Options {
	o := &Options{m: make(map[string]string)}
	for i := 0; i+1 < len(pairs); i += 2 {
		o.m[pairs[i]] = pairs[i+1]
	}
	return o
}

// String returns the option's value or def when absent.
func (o *Options) String(key, def string) string {
	if o == nil {
		return def
	}
	if v, ok := o.m[key]; ok {
		return v
	}
	return def
}

// Int returns the option parsed as an integer, or def.
func (o *Options) Int(key string, def int) int {
	if o == nil {
		return def
	}
	v, ok := o.m[key]
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return def
	}
	return n
}

// Bool returns the option parsed as a boolean. A key present with no
// value counts as true.
func (o *Options) Bool(key string, def bool) bool {
	if o == nil {
		return def
	}
	v, ok := o.m[key]
	if !ok {
		return def
	}
	if v == "" {
		return true
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return def
	}
	return b
}

// TraceLevel returns the invocation's trace level (the "trace[N]"
// option).
func (o *Options) TraceLevel() int { return o.Int("trace", 0) }

// registry of pass factories, guarded by registryMu: built-in passes
// register from init functions, but plugins (cmd/mao -plugin) and
// tests register at arbitrary times, possibly while another goroutine
// resolves a pipeline.
var (
	registryMu sync.RWMutex
	registry   = map[string]func() Pass{}
)

// Register adds a pass factory under its name. It panics on duplicate
// registration (a programming error).
func Register(factory func() Pass) {
	name := factory().Name()
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("pass: duplicate registration of " + name)
	}
	registry[name] = factory
}

// Lookup returns a new instance of the named pass, or nil.
func Lookup(name string) Pass {
	registryMu.RLock()
	f, ok := registry[strings.ToUpper(name)]
	registryMu.RUnlock()
	if ok {
		return f()
	}
	return nil
}

// Names returns all registered pass names, sorted.
func Names() []string {
	registryMu.RLock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	registryMu.RUnlock()
	sort.Strings(out)
	return out
}

// Invocation is one parsed pipeline element: a pass and its options.
type Invocation struct {
	Pass Pass
	Opts *Options
}

// ParsePipeline parses the MAO option syntax "P1=k[v]:P2:P3=k[v],k2[v2]"
// into an ordered pass list. Each pass spec is NAME or NAME=opts where
// opts is a comma-separated list of key[value] (value optional).
func ParsePipeline(spec string) ([]Invocation, error) {
	var out []Invocation
	for _, ps := range splitPipeline(spec) {
		if ps == "" {
			continue
		}
		name, optStr, _ := strings.Cut(ps, "=")
		p := Lookup(name)
		if p == nil {
			return nil, fmt.Errorf("pass: unknown pass %q (known: %s)",
				name, strings.Join(Names(), ", "))
		}
		opts := &Options{m: make(map[string]string)}
		if optStr != "" {
			for _, kv := range strings.Split(optStr, ",") {
				if kv == "" {
					continue
				}
				key, val, err := parseOpt(kv)
				if err != nil {
					return nil, fmt.Errorf("pass %s: %v", name, err)
				}
				opts.m[key] = val
			}
		}
		out = append(out, Invocation{Pass: p, Opts: opts})
	}
	return out, nil
}

// splitPipeline splits on ':' outside of brackets (option values may
// contain path colons, e.g. ASM=o[C:/out.s] never occurs on our
// platforms but robustness is cheap).
func splitPipeline(s string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[':
			depth++
		case ']':
			if depth > 0 {
				depth--
			}
		case ':':
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// parseOpt parses "key[value]" or bare "key".
func parseOpt(s string) (key, val string, err error) {
	if i := strings.IndexByte(s, '['); i >= 0 {
		if !strings.HasSuffix(s, "]") {
			return "", "", fmt.Errorf("malformed option %q", s)
		}
		return s[:i], s[i+1 : len(s)-1], nil
	}
	return s, "", nil
}

// Hook observes pipeline execution around every pass invocation. The
// static-verification certifier (mao/internal/check) implements it to
// snapshot invariants before each pass and re-check them after; other
// implementations may time passes or log progress. An error from either
// method aborts the pipeline, attributed to the observed invocation.
type Hook interface {
	// BeforePass runs before invocation index of the pipeline.
	BeforePass(u *ir.Unit, name string, index int) error
	// AfterPass runs after the invocation completed successfully.
	AfterPass(u *ir.Unit, name string, index int) error
}

// Hooks composes several Hooks into one: each method runs the
// receivers in order and stops at the first error. It lets a pipeline
// stack the static certifier and the translation validator (or any
// other observers) on the Manager's single Hook field.
type Hooks []Hook

// BeforePass runs every hook's BeforePass in order.
func (hs Hooks) BeforePass(u *ir.Unit, name string, index int) error {
	for _, h := range hs {
		if err := h.BeforePass(u, name, index); err != nil {
			return err
		}
	}
	return nil
}

// AfterPass runs every hook's AfterPass in order.
func (hs Hooks) AfterPass(u *ir.Unit, name string, index int) error {
	for _, h := range hs {
		if err := h.AfterPass(u, name, index); err != nil {
			return err
		}
	}
	return nil
}

// Manager runs a pipeline over a unit.
type Manager struct {
	Pipeline []Invocation
	TraceW   io.Writer

	// Hook, when non-nil, is invoked around every pass invocation.
	// Hooks bracket whole invocations — BeforePass runs before the
	// first function is processed and AfterPass after the last — so
	// per-invocation attribution (the check.Certifier) is unaffected
	// by how the functions inside are scheduled.
	Hook Hook

	// Workers bounds the worker pool that ParallelSafe function
	// passes shard a unit's functions across. 0 selects
	// runtime.GOMAXPROCS(0); 1 forces fully sequential execution.
	// Output and merged statistics are byte-identical at any worker
	// count; only wall-clock time changes.
	Workers int

	// Cache is read by nothing: relaxation has no encoding cache.
	//
	// Deprecated: leave it unset.
	Cache *relax.Cache

	// RelaxState, when non-nil, carries fragment-based relaxation
	// state across this manager's runs: successive pipelines over the
	// same unit rescan only what changed, and a run over another unit
	// makes the state drop the old one (relax.State.Hold). It backs
	// the serial contexts of a run (unit passes, non-parallel function
	// passes); parallel workers draw their own states from an internal
	// pool instead, since a State is single-goroutine. A manager with
	// RelaxState set must not run pipelines concurrently.
	RelaxState *relax.State

	// relaxPool recycles per-worker (and, when RelaxState is unset,
	// per-run) relaxation states, so repeated runs through one manager
	// reuse fragment partitions without any sharing across goroutines.
	relaxPool sync.Pool

	// Memo, when non-nil, is the content-addressed per-function
	// pipeline memo (see internal/memo). Before running, the manager
	// fingerprints every function of the unit; if all of them hit, the
	// pipeline is skipped and the memoized optimized spans are spliced
	// in — byte-identical to running cold. After a successful cold run
	// the manager fills the memo. Memoization silently disengages for
	// runs it cannot shortcut faithfully: pipelines with effectful
	// passes (ASM, CHECK) or dump options, managers with a Hook (the
	// certifier must observe every invocation), and units whose runs
	// mutate content outside function spans. Memoized runs report the
	// pseudo-pass MEMO in their Stats instead of per-pass counters.
	Memo *memo.Memo

	// memoState caches the pipeline's memoizability.
	memoState memoState

	// Tracer, when non-nil, collects structured spans: one for the
	// pipeline run, one per pass invocation, and one per function of
	// each function-pass invocation. Span collection is byte- and
	// stats-transparent (output and merged Stats are identical with
	// the tracer on or off, at any worker count) and the disabled-mode
	// cost is a nil check per potential span. Workers record into
	// private storage; the manager adds spans in deterministic
	// (invocation, function) order, so only the recorded times vary
	// between runs.
	Tracer *trace.Collector
}

// NewManager parses a pipeline spec into a runnable manager.
func NewManager(spec string) (*Manager, error) {
	pl, err := ParsePipeline(spec)
	if err != nil {
		return nil, err
	}
	return &Manager{Pipeline: pl}, nil
}

// Run executes the pipeline over u, returning the accumulated
// statistics. It is RunContext with a background context.
//
// Every invocation understands two standard options in addition to its
// own, mirroring the original framework's common base-class
// functionality: dump_before[path] and dump_after[path] write the
// unit's current assembly to the named file (or stderr for an empty
// value) around the pass.
// Errors from a pass (or from a Hook observing it) are wrapped with
// the pass name and its pipeline invocation index — "REDTEST[2]: ..."
// — so failures in long pipelines are attributable to the offending
// invocation.
func (m *Manager) Run(u *ir.Unit) (*Stats, error) {
	return m.RunContext(context.Background(), u)
}

// RunContext is Run under a context: the pipeline aborts between
// passes — and, for function passes, between functions — once ctx is
// done, returning ctx's error wrapped with the invocation that was
// about to run (so errors.Is(err, context.DeadlineExceeded) and
// friends see through it). A unit whose pipeline was aborted is left
// partially transformed but structurally intact; the optimization
// service discards such units rather than emitting them.
func (m *Manager) RunContext(runCtx context.Context, u *ir.Unit) (*Stats, error) {
	if runCtx == nil {
		runCtx = context.Background()
	}
	stats := NewStats()

	// Memo consult: compute per-function fingerprints and, when every
	// function hits, splice the memoized spans instead of running the
	// pipeline. Hooked runs bypass the memo entirely: the certifier
	// and validator must observe every invocation.
	var plan *memo.Plan
	memoHit := false
	if m.Memo != nil && m.Hook == nil {
		plan = m.memoPlan(u)
	}

	// The relaxation state serial contexts of this run share: the
	// manager's configured one, or a pooled state so repeated runs
	// through the same manager still relax incrementally. It is handed
	// the run's unit before the first pass: a state still holding an
	// earlier run's unit drops it here, and edits of this unit are
	// never matched against that unit's partition.
	relaxState := m.RelaxState
	if relaxState == nil {
		relaxState = m.acquireRelax()
		defer m.releaseRelax(relaxState)
	}
	relaxState.Hold(u)

	// The trace writer every context of this run shares: nil when
	// tracing is off, otherwise a serializing wrapper so concurrent
	// writers (unit passes running helper goroutines, programmatic
	// sharing) append whole records.
	traceW := io.Writer(nil)
	if m.TraceW != nil {
		traceW = &syncWriter{w: m.TraceW}
	}

	// Root span of the pipeline run, finished on every exit path.
	rootSpan := -1
	if m.Tracer.Enabled() {
		rootSpan = m.Tracer.Add(trace.Span{
			Kind:        trace.KindPipeline,
			Start:       m.Tracer.Now(),
			NodesBefore: u.List.Len(),
			Parent:      -1,
		})
		defer func() {
			end, nodes := m.Tracer.Now(), u.List.Len()
			m.Tracer.Update(rootSpan, func(s *trace.Span) {
				s.Dur = end - s.Start
				s.NodesAfter = nodes
			})
		}()
	}

	if plan != nil {
		if hit, ok := m.Memo.Lookup(plan); ok {
			spliced, err := hit.Splice(u)
			switch {
			case errors.Is(err, memo.ErrBadEntry):
				// The unit is untouched: run cold, and the fill below
				// replaces the entry.
			case err != nil:
				return stats, fmt.Errorf("memo: splice: %w", err)
			default:
				stats.Add("MEMO", "functions", plan.Functions())
				stats.Add("MEMO", "spliced", spliced)
				memoHit = true
			}
		}
	}

	// A memo hit empties the pipeline for this run: the spliced unit
	// already is the pipeline's output.
	pipeline := m.Pipeline
	if memoHit {
		pipeline = nil
	}
	// The function analyses every context of this run shares; a memo
	// hit runs no pass and needs none.
	var an *analyses
	if len(pipeline) > 0 {
		an = newAnalyses(u)
	}
	for idx, inv := range pipeline {
		name := inv.Pass.Name()
		if err := runCtx.Err(); err != nil {
			return stats, fmt.Errorf("%s[%d]: %w", name, idx, err)
		}
		an.resync()
		ctx := &Ctx{
			Unit:      u,
			Opts:      inv.Opts,
			Stats:     stats,
			TraceW:    traceW,
			Relax:     relaxState,
			an:        an,
			ctx:       runCtx,
			passName:  name,
			passIndex: idx,
		}
		if err := dumpIR(u, inv, "dump_before"); err != nil {
			return stats, err
		}
		if m.Hook != nil {
			if err := m.Hook.BeforePass(u, name, idx); err != nil {
				return stats, fmt.Errorf("%s[%d]: %w", name, idx, err)
			}
		}

		// Invocation span: added before the pass runs (children refer
		// to it as parent), finished after.
		invSpan := -1
		var invStats *Stats
		if m.Tracer.Enabled() {
			invSpan = m.Tracer.Add(trace.Span{
				Kind:        trace.KindInvocation,
				Ref:         trace.Ref{Pass: name, Index: idx},
				Start:       m.Tracer.Now(),
				NodesBefore: u.List.Len(),
				Parent:      rootSpan,
			})
			// The invocation gets a private stats sink, merged into the
			// run's sink afterwards — counter addition is commutative
			// and ordered, so totals are identical to the untraced run,
			// and the sink's content is exactly this span's delta.
			invStats = NewStats()
			ctx.Stats = invStats
		}
		finishInv := func(changed bool, withStats bool) {
			if invSpan < 0 {
				return
			}
			end, nodes := m.Tracer.Now(), u.List.Len()
			var sm map[string]int
			if withStats {
				sm = invStats.Map()[name]
			}
			m.Tracer.Update(invSpan, func(s *trace.Span) {
				s.Dur = end - s.Start
				s.NodesAfter = nodes
				s.Changed = changed
				s.Stats = sm
			})
			stats.Merge(invStats)
		}

		switch p := inv.Pass.(type) {
		case UnitPass:
			changed, err := p.RunUnit(ctx)
			finishInv(changed, true)
			if err != nil {
				return stats, fmt.Errorf("%s[%d]: %w", name, idx, err)
			}
		case FuncPass:
			err := m.runFuncPass(runCtx, u, p, ctx, idx, invSpan)
			// Function spans carry the per-function stats; the
			// invocation span only aggregates wall time and IR delta.
			finishInv(false, false)
			if err != nil {
				return stats, err
			}
		default:
			finishInv(false, false)
			return stats, fmt.Errorf("%s[%d]: pass implements neither FuncPass nor UnitPass", name, idx)
		}
		if m.Hook != nil {
			if err := m.Hook.AfterPass(u, name, idx); err != nil {
				return stats, fmt.Errorf("%s[%d]: %w", name, idx, err)
			}
		}
		if err := dumpIR(u, inv, "dump_after"); err != nil {
			return stats, err
		}
	}
	if plan != nil && !memoHit {
		m.Memo.Fill(plan, u)
	}
	return stats, nil
}

// acquireRelax takes a relaxation state from the manager's pool.
func (m *Manager) acquireRelax() *relax.State {
	if v := m.relaxPool.Get(); v != nil {
		return v.(*relax.State)
	}
	return relax.NewState()
}

func (m *Manager) releaseRelax(s *relax.State) { m.relaxPool.Put(s) }

// dumpIR implements the dump_before/dump_after standard options.
func dumpIR(u *ir.Unit, inv Invocation, key string) error {
	if _, present := inv.Opts.m[key]; !present {
		return nil
	}
	path := inv.Opts.String(key, "")
	w := io.Writer(os.Stderr)
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("pass %s: %s: %w", inv.Pass.Name(), key, err)
		}
		defer f.Close()
		w = f
	}
	fmt.Fprintf(w, "# IR %s pass %s\n", strings.TrimPrefix(key, "dump_"), inv.Pass.Name())
	_, err := u.WriteTo(w)
	return err
}
