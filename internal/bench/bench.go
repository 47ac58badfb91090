// Package bench wires the full MAO pipeline into runnable experiments:
// generate (or accept) an assembly unit, optionally run an optimization
// pipeline over it, relax it, execute it, and time it on a simulated
// micro-architecture. Every table and figure reproduction in
// cmd/maobench and bench_test.go goes through this package.
package bench

import (
	"fmt"
	"math"
	"sync"

	"mao/internal/asm"
	"mao/internal/corpus"
	"mao/internal/ir"
	"mao/internal/pass"
	_ "mao/internal/passes" // register the full pass catalog
	"mao/internal/relax"
	"mao/internal/trace"
	"mao/internal/uarch"
	"mao/internal/uarch/exec"
	"mao/internal/uarch/sim"
)

// Run is the outcome of one measured configuration.
type Run struct {
	Workload string
	Pipeline string
	Model    string

	Stats    *pass.Stats   // pass statistics (transformation counts)
	Counters *sim.Counters // simulated PMU counters
	CodeSize int64         // bytes of .text after relaxation
	Executed int64         // dynamic instructions
}

// MaxInsts bounds each simulated execution.
const MaxInsts = 4_000_000

// Workers bounds the pass manager's worker pool for every pipeline
// this package runs (0 = GOMAXPROCS, 1 = sequential). cmd/maobench's
// -j flag sets it; results are identical at any value.
var Workers = 0

// Tracer, when non-nil, collects pipeline spans for every Optimize
// call (cmd/maobench's -timings flag sets it). Span collection is
// byte- and stats-transparent, so measured results are unaffected.
var Tracer *trace.Collector

// relaxStates recycles relaxation states across Optimize calls (each
// call builds a fresh Manager, so without this pool every benchmarked
// pipeline would start from an empty fragment partition). States are
// never shared: each Optimize call owns one for its duration.
var relaxStates sync.Pool

func acquireRelaxState() *relax.State {
	if v := relaxStates.Get(); v != nil {
		return v.(*relax.State)
	}
	return relax.NewState()
}

// Prepare parses a workload into a unit (no passes yet).
func Prepare(w corpus.Workload) (*ir.Unit, error) {
	return asm.ParseString(w.Name+".s", corpus.Generate(w))
}

// Optimize runs a pass pipeline over a unit in place. An empty
// pipeline is a no-op. The unit is re-analyzed afterwards.
func Optimize(u *ir.Unit, pipeline string) (*pass.Stats, error) {
	if pipeline == "" {
		return pass.NewStats(), nil
	}
	mgr, err := pass.NewManager(pipeline)
	if err != nil {
		return nil, err
	}
	mgr.Workers = Workers
	mgr.Tracer = Tracer
	st := acquireRelaxState()
	defer relaxStates.Put(st)
	mgr.RelaxState = st
	stats, err := mgr.Run(u)
	if err != nil {
		return nil, err
	}
	return stats, u.Analyze()
}

// Measure relaxes, executes and simulates a prepared unit. The layout
// gets its own relaxation state (not a pooled one): it is returned to
// the caller, and a Layout is a live view into the State that built it.
func Measure(u *ir.Unit, entry string, model *uarch.CPUModel) (*sim.Counters, *relax.Layout, int64, error) {
	layout, err := relax.Relax(u, nil)
	if err != nil {
		return nil, nil, 0, err
	}
	s := sim.New(model)
	res, err := exec.Run(&exec.Config{
		Unit: u, Layout: layout, Entry: entry,
		MaxInsts: MaxInsts,
		OnEvent:  func(ev exec.Event) { s.Feed(ev) },
	})
	if err != nil {
		return nil, nil, 0, fmt.Errorf("bench: executing %s: %w", entry, err)
	}
	return s.Finish(), layout, res.Executed, nil
}

// RunWorkload generates, optimizes, and measures one workload under
// one pipeline and model.
func RunWorkload(w corpus.Workload, pipeline string, model *uarch.CPUModel) (*Run, error) {
	u, err := Prepare(w)
	if err != nil {
		return nil, err
	}
	stats, err := Optimize(u, pipeline)
	if err != nil {
		return nil, fmt.Errorf("bench: %s pipeline %q: %w", w.Name, pipeline, err)
	}
	counters, layout, executed, err := Measure(u, w.EntryName(), model)
	if err != nil {
		return nil, err
	}
	return &Run{
		Workload: w.Name,
		Pipeline: pipeline,
		Model:    model.Name,
		Stats:    stats,
		Counters: counters,
		CodeSize: layout.SectionEnd[".text"],
		Executed: executed,
	}, nil
}

// DeltaPct returns the speedup of opt over base in percent: positive
// means opt is faster (the paper's sign convention).
func DeltaPct(base, opt *sim.Counters) float64 {
	if base.Cycles == 0 {
		return 0
	}
	return (float64(base.Cycles) - float64(opt.Cycles)) / float64(base.Cycles) * 100
}

// Compare measures a workload with and without a pipeline on a model.
func Compare(w corpus.Workload, pipeline string, model *uarch.CPUModel) (base, opt *Run, delta float64, err error) {
	base, err = RunWorkload(w, "", model)
	if err != nil {
		return nil, nil, 0, err
	}
	opt, err = RunWorkload(w, pipeline, model)
	if err != nil {
		return nil, nil, 0, err
	}
	return base, opt, DeltaPct(base.Counters, opt.Counters), nil
}

// Geomean computes the geometric mean of (1 + delta/100) percentage
// deltas, returned again as a percentage — the aggregation of the
// paper's Figure 7.
func Geomean(deltas []float64) float64 {
	if len(deltas) == 0 {
		return 0
	}
	prod := 1.0
	for _, d := range deltas {
		prod *= 1 + d/100
	}
	return (math.Pow(prod, 1/float64(len(deltas))) - 1) * 100
}
