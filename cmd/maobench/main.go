// Maobench regenerates every table and figure of the MAO paper's
// evaluation on the repository's simulated micro-architectures and
// synthetic workloads.
//
// Usage:
//
//	maobench                     # run every experiment
//	maobench -experiment fig1-nop
//	maobench -list
//	maobench -scale 0.1          # shrink corpora for a quick pass
//	maobench -json               # write BENCH_relax/pipeline/memo.json
//	maobench -json -baseline .   # also fail on >2x ns/op regression
//	maobench -verify             # measure translation-validation overhead
//	maobench -memo -scale 0.1    # verify the pipeline memo on the corpus
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"mao/internal/bench"
	"mao/internal/experiments"
	"mao/internal/trace"
)

// regressionFactor is the ns/op ratio -baseline tolerates before
// failing. Loose on purpose: the smoke catches order-of-magnitude
// breakage (incremental relaxation degrading to full rebuilds), not
// machine-to-machine noise.
const regressionFactor = 2.0

// memoHitRateFloor is the memo hit rate `maobench -memo` demands from
// the repeat-corpus replay: with the default 20 rounds only the fill
// round may miss, so anything at or below 0.9 means functions failed
// to memoize at all (or the memo silently invalidated between rounds).
const memoHitRateFloor = 0.9

// memoVerifyRounds is how often -memo replays each corpus unit through
// the shared memo (round 1 fills, every later round must hit).
const memoVerifyRounds = 20

// runMemoVerify replays the corpus through a shared pipeline memo,
// failing on any output that differs from a cold run or on a hit rate
// at or below memoHitRateFloor.
func runMemoVerify(scale float64) error {
	results, err := bench.MemoCorpusVerify(scale, memoVerifyRounds)
	if err != nil {
		return err
	}
	for _, r := range results {
		fmt.Printf("memo %-28s %3d units %5d functions %3d rounds  hit-rate %.3f  byte-identical\n",
			r.Spec, r.Sources, r.Functions, r.Rounds, r.HitRate)
		if r.HitRate <= memoHitRateFloor {
			return fmt.Errorf("memo %s: hit rate %.3f is not above %.1f",
				r.Spec, r.HitRate, memoHitRateFloor)
		}
	}
	return nil
}

// runBenchJSON measures the repeated-relaxation, repeated-pipeline and
// warm-memo benchmarks, writes BENCH_relax.json, BENCH_pipeline.json
// and BENCH_memo.json into outDir, and — when baselineDir is set —
// fails on a >2x ns/op regression against the baselines checked in
// there.
func runBenchJSON(outDir, baselineDir string) error {
	relaxRes, err := bench.MeasureRelaxBench()
	if err != nil {
		return err
	}
	pipeRes, err := bench.MeasurePipelineBench()
	if err != nil {
		return err
	}
	memoRes, err := bench.MeasureMemoBench()
	if err != nil {
		return err
	}
	for _, e := range []struct {
		file string
		res  *bench.BenchResult
	}{
		{"BENCH_relax.json", relaxRes},
		{"BENCH_pipeline.json", pipeRes},
		{"BENCH_memo.json", memoRes},
	} {
		out := filepath.Join(outDir, e.file)
		if err := bench.WriteBenchJSON(out, e.res); err != nil {
			return err
		}
		fmt.Printf("%-20s %10.0f ns/op %8d B/op %6d allocs/op", e.res.Benchmark,
			e.res.NsPerOp, e.res.BytesPerOp, e.res.AllocsPerOp)
		if e.res.Speedup > 0 {
			fmt.Printf("  %5.1fx vs reference  %.2f frag-reuse", e.res.Speedup, e.res.FragmentReuseRate)
		}
		fmt.Printf("  -> %s\n", out)
		if baselineDir != "" {
			if err := bench.CompareBaseline(e.res, filepath.Join(baselineDir, e.file), regressionFactor); err != nil {
				return err
			}
		}
	}
	if baselineDir != "" {
		fmt.Printf("baseline check passed (tolerance %.1fx)\n", regressionFactor)
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("maobench: ")
	name := flag.String("experiment", "", "run a single experiment by name")
	list := flag.Bool("list", false, "list experiment names")
	scale := flag.Float64("scale", 1.0, "corpus scale factor (1.0 = the paper's sizes)")
	workers := flag.Int("j", 0, "worker pool for parallel-safe function passes (0 = GOMAXPROCS, 1 = sequential)")
	timings := flag.Bool("timings", false, "print an aggregate per-pass timing table for all pipelines run")
	jsonOut := flag.Bool("json", false, "measure relaxation/pipeline benchmarks and write BENCH_relax.json + BENCH_pipeline.json")
	verifyOH := flag.Bool("verify", false, "measure the translation-validation overhead of a verified pipeline")
	memoVerify := flag.Bool("memo", false, "replay the corpus through a shared pipeline memo; fail unless hit rate > 0.9 and output is byte-identical to cold runs")
	outDir := flag.String("outdir", ".", "directory BENCH_*.json files are written to (with -json)")
	baseline := flag.String("baseline", "", "directory holding baseline BENCH_*.json; exit non-zero on >2x ns/op regression (with -json)")
	flag.Parse()
	bench.Workers = *workers
	if *timings {
		bench.Tracer = trace.NewCollector()
	}

	if *jsonOut {
		if err := runBenchJSON(*outDir, *baseline); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *memoVerify {
		if err := runMemoVerify(*scale); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *verifyOH {
		r, err := bench.MeasureVerifyOverhead()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("verify overhead (%s): plain %.2f ms/op, verified %.2f ms/op, %.2fx\n",
			r.Pipeline, r.PlainNsPerOp/1e6, r.VerifyNsPerOp/1e6, r.Overhead)
		return
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-18s %s\n", e.Name, e.Title)
		}
		return
	}
	run := experiments.All()
	if *name != "" {
		e := experiments.Find(*name)
		if e == nil {
			log.Fatalf("unknown experiment %q (use -list)", *name)
		}
		run = []experiments.Experiment{*e}
	}
	for _, e := range run {
		fmt.Printf("=== %s: %s ===\n", e.Name, e.Title)
		if err := e.Run(os.Stdout, *scale); err != nil {
			log.Fatalf("experiment %s: %v", e.Name, err)
		}
		fmt.Println()
	}
	if *timings {
		fmt.Println("=== per-pass timings (all pipelines) ===")
		if err := trace.WriteSummary(os.Stdout, bench.Tracer); err != nil {
			log.Fatal(err)
		}
	}
}
