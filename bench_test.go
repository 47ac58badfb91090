package mao_test

// The benchmark harness: one testing.B benchmark per table and figure
// of the paper's evaluation (each delegating to the shared experiment
// implementations that cmd/maobench also runs), plus component
// micro-benchmarks for the infrastructure itself.
//
// Experiment benchmarks run at a reduced corpus scale so `go test
// -bench=.` completes quickly; `cmd/maobench -scale 1` regenerates the
// full-size tables. The experiments are deterministic, so the bench
// timings measure harness cost while the *results* (recorded in
// EXPERIMENTS.md) come from the experiment output itself.

import (
	"fmt"
	"io"
	"testing"

	"mao"
	"mao/internal/bench"
	"mao/internal/corpus"
	"mao/internal/experiments"
	"mao/internal/uarch"
)

const benchScale = 0.05

func runExperiment(b *testing.B, name string) {
	b.Helper()
	e := experiments.Find(name)
	if e == nil {
		b.Fatalf("unknown experiment %q", name)
	}
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

// --- paper tables and figures, one benchmark each ---------------------------

func BenchmarkFig1NOP(b *testing.B)          { runExperiment(b, "fig1-nop") }
func BenchmarkRelaxExample(b *testing.B)     { runExperiment(b, "relax") }
func BenchmarkCFGIndirect(b *testing.B)      { runExperiment(b, "cfg-indirect") }
func BenchmarkStaticCounts(b *testing.B)     { runExperiment(b, "counts-static") }
func BenchmarkFig45LSD(b *testing.B)         { runExperiment(b, "fig45-lsd") }
func BenchmarkSchedHash(b *testing.B)        { runExperiment(b, "sched-hash") }
func BenchmarkEonRegress(b *testing.B)       { runExperiment(b, "eon-regress") }
func BenchmarkLoop16Core2(b *testing.B)      { runExperiment(b, "loop16-core2") }
func BenchmarkLoop16Opteron(b *testing.B)    { runExperiment(b, "loop16-opteron") }
func BenchmarkSpec2006Opteron(b *testing.B)  { runExperiment(b, "spec2006-opteron") }
func BenchmarkSchedSuite(b *testing.B)       { runExperiment(b, "sched-suite") }
func BenchmarkFig7Aggregate(b *testing.B)    { runExperiment(b, "fig7-aggregate") }
func BenchmarkNopKillSize(b *testing.B)      { runExperiment(b, "nopkill-size") }
func BenchmarkSimAddrGain(b *testing.B)      { runExperiment(b, "simaddr-gain") }
func BenchmarkInstrumentation(b *testing.B)  { runExperiment(b, "instrument") }
func BenchmarkCompileTimeRatio(b *testing.B) { runExperiment(b, "compile-time") }

// --- extension experiments (anecdotes + ablations) ---------------------------

func BenchmarkBrAlign(b *testing.B)   { runExperiment(b, "bralign") }
func BenchmarkPrefNTA(b *testing.B)   { runExperiment(b, "prefnta") }
func BenchmarkNopinP4(b *testing.B)   { runExperiment(b, "nopin-p4") }
func BenchmarkAblations(b *testing.B) { runExperiment(b, "ablations") }

// --- infrastructure micro-benchmarks -----------------------------------------

// BenchmarkParse measures parser throughput and allocations on the
// synthetic corpus.
func BenchmarkParse(b *testing.B) {
	src := corpus.Generate(corpus.CoreLibrary(benchScale))
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mao.ParseString("bench.s", src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRelax measures repeated relaxation on the corpus.
func BenchmarkRelax(b *testing.B) {
	src := corpus.Generate(corpus.CoreLibrary(benchScale))
	u, err := mao.ParseString("bench.s", src)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mao.Relax(u); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPatternPasses measures the peephole pipeline.
func BenchmarkPatternPasses(b *testing.B) {
	src := corpus.Generate(corpus.CoreLibrary(benchScale))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, err := mao.ParseString("bench.s", src)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mao.RunPipeline(u, "REDZEXT:REDTEST:REDMOV:ADDADD"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineWorkers measures the parallel per-function pipeline
// at several worker counts over a scheduling-heavy pipeline (SCHED
// dominates, so the fan-out has real work to distribute). The emitted
// unit is identical at every worker count; only wall-clock changes.
func BenchmarkPipelineWorkers(b *testing.B) {
	src := corpus.Generate(corpus.CoreLibrary(0.5))
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				u, err := mao.ParseString("bench.s", src)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				_, err = mao.RunPipelineParallel(u,
					"REDZEXT:REDTEST:REDMOV:ADDADD:DCE:CONSTFOLD:SCHED",
					mao.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulate measures executor+simulator throughput.
func BenchmarkSimulate(b *testing.B) {
	wl := corpus.Spec2000Int(benchScale)[1] // vpr-like
	u, err := bench.Prepare(wl)
	if err != nil {
		b.Fatal(err)
	}
	var insts int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := mao.Measure(u, wl.EntryName(), uarch.Core2(), 0)
		if err != nil {
			b.Fatal(err)
		}
		insts = int64(c.Insts)
	}
	b.ReportMetric(float64(insts), "dyn-insts/op")
}
