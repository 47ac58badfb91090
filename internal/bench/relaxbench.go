package bench

import (
	"testing"

	"mao/internal/asm"
	"mao/internal/corpus"
	"mao/internal/ir"
	"mao/internal/pass"
	"mao/internal/relax"
	"mao/internal/x86/encode"
)

// This file holds the repeated-relaxation benchmark bodies as plain
// functions so both `go test -bench` (thin wrappers in the relax test
// suite) and cmd/maobench -json (via testing.Benchmark) run the exact
// same workloads.

// relaxBenchSource returns the name and source of the unit the
// relaxation benchmarks edit: one mid-size generated workload, full of
// branches, labels and alignment directives.
func relaxBenchSource() (name, src string) {
	w := corpus.Spec2000Int(0.3)[0]
	return w.Name + ".s", corpus.Generate(w)
}

// relaxBenchUnit parses relaxBenchSource.
func relaxBenchUnit() (*ir.Unit, error) { return asm.ParseString(relaxBenchSource()) }

// RelaxRepeated measures the steady-state edit→relax cycle on the
// fragment engine: insert a probe NOP near the end of the unit, relax,
// remove it, relax again, with one reused State throughout.
// Steady state performs zero allocations (asserted by the relax test
// suite); almost every fragment is reused between relaxations.
func RelaxRepeated(b *testing.B) {
	u, err := relaxBenchUnit()
	if err != nil {
		b.Fatal(err)
	}
	st := relax.NewState()
	opts := &relax.Options{State: st}
	probe := ir.InstNode(encode.Nop(1))
	anchor := u.List.Back()

	cycle := func() error {
		u.List.InsertBefore(probe, anchor)
		st.NodeInserted(probe)
		if _, err := relax.Relax(u, opts); err != nil {
			return err
		}
		u.List.Remove(probe)
		st.NodeRemoved(probe)
		_, err := relax.Relax(u, opts)
		return err
	}
	if err := cycle(); err != nil { // warm up the partition and pools
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cycle(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	m := st.Metrics()
	b.ReportMetric(m.ReuseRate(), "frag-reuse")
}

// RelaxRepeatedReference is the identical edit→relax cycle on the
// pre-fragment full-walk algorithm — the baseline the fragment engine
// is measured against.
func RelaxRepeatedReference(b *testing.B) {
	u, err := relaxBenchUnit()
	if err != nil {
		b.Fatal(err)
	}
	probe := ir.InstNode(encode.Nop(1))
	anchor := u.List.Back()

	cycle := func() error {
		u.List.InsertBefore(probe, anchor)
		if _, err := relax.Reference(u, nil); err != nil {
			return err
		}
		u.List.Remove(probe)
		_, err := relax.Reference(u, nil)
		return err
	}
	if err := cycle(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cycle(); err != nil {
			b.Fatal(err)
		}
	}
}

// PipelineRepeated measures repeated alignment pipelines over one unit
// through a single manager: after the first run reaches a fixpoint,
// every further run is pure relaxation traffic, which the per-run
// relaxation state serves incrementally.
func PipelineRepeated(b *testing.B) {
	u, err := relaxBenchUnit()
	if err != nil {
		b.Fatal(err)
	}
	mgr, err := pass.NewManager("LOOP16:LSD:BRALIGN")
	if err != nil {
		b.Fatal(err)
	}
	mgr.Workers = 1
	mgr.RelaxState = relax.NewState()
	if _, err := mgr.Run(u); err != nil { // reach the pipeline fixpoint
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mgr.Run(u); err != nil {
			b.Fatal(err)
		}
	}
}

// RelaxBenchStats reports workload facts the benchmark JSON records
// alongside the timings: fixpoint iteration count of the bench unit and
// the fragment-reuse rate of a probe cycle.
func RelaxBenchStats() (iterations int, reuseRate float64, err error) {
	u, err := relaxBenchUnit()
	if err != nil {
		return 0, 0, err
	}
	st := relax.NewState()
	opts := &relax.Options{State: st}
	l, err := relax.Relax(u, opts)
	if err != nil {
		return 0, 0, err
	}
	iterations = l.Iterations
	probe := ir.InstNode(encode.Nop(1))
	anchor := u.List.Back()
	for i := 0; i < 8; i++ {
		u.List.InsertBefore(probe, anchor)
		st.NodeInserted(probe)
		if _, err := relax.Relax(u, opts); err != nil {
			return 0, 0, err
		}
		u.List.Remove(probe)
		st.NodeRemoved(probe)
		if _, err := relax.Relax(u, opts); err != nil {
			return 0, 0, err
		}
	}
	return iterations, st.Metrics().ReuseRate(), nil
}
