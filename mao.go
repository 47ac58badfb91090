// Package mao is an extensible micro-architectural assembly-to-assembly
// optimizer for x86-64, reproducing the system described in
//
//	R. Hundt, E. Raman, M. Thuresson, N. Vachharajani:
//	"MAO — an Extensible Micro-Architectural Optimizer", CGO 2011.
//
// MAO parses compiler-emitted assembly into a thin IR, runs named
// optimization and analysis passes over it, and emits assembly again:
//
//	u, _ := mao.ParseString("in.s", src)
//	stats, _ := mao.RunPipeline(u, "REDTEST:REDMOV:LOOP16")
//	fmt.Print(u)
//
// Beyond the pass infrastructure the module carries everything the
// paper's evaluation needs: byte-accurate instruction encoding and
// repeated relaxation, per-function CFGs with jump-table resolution,
// Havlak loop nesting, register/flag data-flow, a functional x86-64
// executor, parameterized Core-2/Opteron/P4-like timing models with
// PMU-style counters, the Section IV microbenchmark framework for
// parameter discovery, and synthetic SPEC-like corpora. This package
// is the facade; the subsystems live under internal/ and the runnable
// reproductions under cmd/ and examples/.
package mao

import (
	"context"
	"os"

	"mao/internal/asm"
	"mao/internal/check"
	"mao/internal/ir"
	"mao/internal/memo"
	"mao/internal/pass"
	_ "mao/internal/passes" // register the pass catalog
	"mao/internal/relax"
	"mao/internal/trace"
	"mao/internal/uarch"
	"mao/internal/uarch/exec"
	"mao/internal/uarch/sim"
	"mao/internal/verify"
	"mao/internal/x86/decode"
)

// Core IR types.
type (
	// Unit is the IR for one assembly file.
	Unit = ir.Unit
	// Function is one recognized function within a unit.
	Function = ir.Function
	// Node is one IR list element (instruction, label or directive).
	Node = ir.Node
)

// Layout is the result of relaxation: byte-accurate addresses and
// lengths for every node, and each instruction's encoding on demand
// (Layout.Bytes).
type Layout = relax.Layout

// Stats accumulates per-pass transformation counters.
type Stats = pass.Stats

// Diag is one structured diagnostic from the static checker.
type Diag = check.Diag

// CPUModel is a parameterized micro-architecture description.
type CPUModel = uarch.CPUModel

// Counters are simulated PMU counts (cycles, decode lines, LSD uops,
// mispredicts, RS_FULL stalls, cache events).
type Counters = sim.Counters

// ParseString parses AT&T-syntax assembly into an analyzed unit.
func ParseString(name, src string) (*Unit, error) {
	return asm.ParseString(name, src)
}

// DecodeBinary decodes raw x86-64 machine code and lifts it into an
// analyzed unit: the buffer becomes one .text function, branch-target
// byte offsets become synthetic local labels, and every instruction
// node carries MAODEC[offset] provenance. base is the load address of
// code[0] (it shapes the synthetic label names). The returned unit
// flows through the same passes, checks and relaxation as parsed
// assembly; tracer (optional, may be nil) receives one KindDecode
// span.
func DecodeBinary(name string, code []byte, base int64, tracer *TraceCollector) (*Unit, error) {
	return decode.ToUnit(code, decode.UnitOptions{
		FileName: name, Base: base, Tracer: tracer,
	})
}

// ParseFile parses the assembly file at path.
func ParseFile(path string) (*Unit, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return asm.ParseString(path, string(b))
}

// RunPipeline runs a ':'-separated pass pipeline over the unit, e.g.
// "REDTEST:REDMOV:LOOP16" or "LFIND=trace[2]". It returns the
// accumulated transformation statistics. See Passes for the catalog.
func RunPipeline(u *Unit, spec string) (*Stats, error) {
	mgr, err := pass.NewManager(spec)
	if err != nil {
		return nil, err
	}
	stats, err := mgr.Run(u)
	if err != nil {
		return nil, err
	}
	return stats, u.Analyze()
}

// Memo is the content-addressed, function-granular pipeline memo:
// every function's optimized form is keyed by a sha256 fingerprint of
// its content, the pipeline spec and the pass-catalog/check/verify
// versions. A unit whose functions all hit skips the pipeline and
// splices the memoized spans — byte-identical to a cold run. Share
// one memo across runs (and goroutines) via Options.Memo; the maod
// service shares one across all requests.
type Memo = memo.Memo

// NewMemo returns an empty pipeline memo bounded to maxEntries
// function entries (<= 0 selects the default), versioned against the
// current pass catalog and validator semantics.
func NewMemo(maxEntries int) *Memo {
	return memo.New(maxEntries, pass.CatalogVersion(), check.Version, verify.Version)
}

// Relaxer is reusable fragment-based relaxation state: repeated
// relaxation of the same (possibly edited) unit rescans only the
// fragments that changed instead of re-walking the whole unit. A
// Relaxer is single-goroutine; see relax.State for the reuse and
// invalidation protocol.
type Relaxer = relax.State

// NewRelaxer returns an empty reusable relaxation state. Pass it via
// Options.Relaxer to carry fragment partitions across pipeline runs,
// or use it directly with RelaxWith.
func NewRelaxer() *Relaxer { return relax.NewState() }

// RelaxWith is Relax carrying state across calls: layouts after the
// first are computed incrementally. The returned Layout is a view into
// st and is invalidated by st's next relaxation.
func RelaxWith(u *Unit, st *Relaxer) (*Layout, error) {
	return relax.Relax(u, &relax.Options{State: st})
}

// Tracing and provenance types (see mao/internal/trace).
type (
	// TraceCollector gathers pipeline, invocation and function spans
	// while a pipeline runs. Attach one via Options.Tracer; export with
	// trace.WriteJSON, trace.WriteChromeTrace or trace.WriteSummary.
	TraceCollector = trace.Collector
	// Span is one timed region of a pipeline run.
	Span = trace.Span
	// InstLineage is the provenance record of one instruction: which
	// pass invocation synthesized it and which mutated it last.
	InstLineage = trace.InstLineage
)

// NewTraceCollector returns an empty span collector.
func NewTraceCollector() *TraceCollector { return trace.NewCollector() }

// Explain returns per-instruction lineage for every function of the
// unit, in program order: source instructions carry their input line,
// synthesized and rewritten ones the NAME[idx] pass invocation that
// produced them. Run a pipeline first; on a freshly parsed unit every
// instruction is simply a source line.
func Explain(u *Unit) []InstLineage { return trace.Lineage(u) }

// Options configures a pipeline run.
type Options struct {
	// Workers bounds the per-function worker pool for parallel-safe
	// function passes: 0 means GOMAXPROCS, 1 forces sequential
	// execution. Output and statistics are identical at any value.
	Workers int
	// Tracer, when non-nil, collects timing spans for the run. Span
	// collection is byte- and stats-transparent; when nil the pipeline
	// pays only a nil check.
	Tracer *TraceCollector
	// Relaxer, when non-nil, carries fragment-based relaxation state
	// across pipeline runs over the same unit, so each run's internal
	// relaxations rescan only what earlier edits touched. Do not run
	// pipelines sharing one Relaxer concurrently.
	Relaxer *Relaxer
	// Memo, when non-nil, memoizes per-function pipeline results by
	// content: a unit whose functions were all optimized before (by
	// any run sharing the memo) skips the pipeline and splices the
	// memoized spans. Output is byte-identical to a cold run.
	Memo *Memo
}

// RunPipelineParallel is RunPipeline with explicit options (worker
// count, tracer, relaxer, memo). Emitted assembly and returned
// statistics are byte-for-byte identical at any worker count.
func RunPipelineParallel(u *Unit, spec string, opts Options) (*Stats, error) {
	return RunPipelineContext(context.Background(), u, spec, opts)
}

// RunPipelineContext is RunPipelineParallel under a context: the
// pipeline aborts between passes (and between functions of a function
// pass) once ctx is done, returning ctx's error wrapped with the
// invocation that was about to run. This is the entry point for
// request-scoped callers — the maod optimization service threads every
// request's deadline through it.
func RunPipelineContext(ctx context.Context, u *Unit, spec string, opts Options) (*Stats, error) {
	mgr, err := pass.NewManager(spec)
	if err != nil {
		return nil, err
	}
	mgr.Workers = opts.Workers
	mgr.Tracer = opts.Tracer
	mgr.RelaxState = opts.Relaxer
	mgr.Memo = opts.Memo
	stats, err := mgr.RunContext(ctx, u)
	if err != nil {
		return nil, err
	}
	return stats, u.Analyze()
}

// Passes lists the registered pass names.
func Passes() []string { return pass.Names() }

// Check runs the static verification rule catalog (ABI contracts,
// condition-code definedness, stack balance, CFG sanity) over every
// function of the unit and returns the sorted diagnostics. The same
// catalog is available as the CHECK pipeline pass and, wrapped in
// check.Certifier, certifies every pass of a pipeline.
func Check(u *Unit) []Diag { return check.CheckUnit(u) }

// Relax computes instruction addresses and lengths by repeated
// relaxation; the returned Layout encodes an instruction on demand.
func Relax(u *Unit) (*Layout, error) { return relax.Relax(u, nil) }

// Core2 returns the Intel Core-2-like machine model (16-byte decode
// lines, LSD, PC>>5 branch-predictor indexing, forwarding bandwidth 2).
func Core2() *CPUModel { return uarch.Core2() }

// Opteron returns the AMD-like machine model (32-byte fetch windows,
// no LSD, symmetric ALU ports).
func Opteron() *CPUModel { return uarch.Opteron() }

// P4 returns the NetBurst-like machine model (deep pipeline, narrow
// decode).
func P4() *CPUModel { return uarch.P4() }

// Measure executes the unit from the named entry function on the
// model and returns simulated PMU counters. maxInsts bounds the run
// (0 = the 2M default).
func Measure(u *Unit, entry string, model *CPUModel, maxInsts int64) (*Counters, error) {
	layout, err := relax.Relax(u, nil)
	if err != nil {
		return nil, err
	}
	s := sim.New(model)
	if _, err := exec.Run(&exec.Config{
		Unit: u, Layout: layout, Entry: entry,
		MaxInsts: maxInsts,
		OnEvent:  func(ev exec.Event) { s.Feed(ev) },
	}); err != nil {
		return nil, err
	}
	return s.Finish(), nil
}
