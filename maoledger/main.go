// Command maoledger is the repository's benchmark: it boots the
// deployed path (maorouter in front of two maod shards) in one
// process, drives a seeded workload through it as a closed loop over
// two connections, checks every answer against the cold uncached
// pipeline, and prints the end-to-end metrics. With --trace 1 it
// instead prints per-layer metrics from the fleet's /metrics and a
// traced in-process replay of the same inputs.
//
//	maoledger --workload cold-unique --seed 1 --seconds 20 --trace 0
//	maoledger --steady 10 --seconds 20
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// See README.md in this directory for the workloads, the metrics and
// the layer-to-metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"
	"time"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("maoledger: ")
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
		seed    = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Int("seconds", 10, "measure until the timed phases add up to this many seconds")
		traced  = flag.Int("trace", 0, "1 = the traced run: print per-layer metrics instead of end-to-end ones")
		steady  = flag.Int("steady", 0, "steadiness mode: run every workload this many times in each of two sets")
	)
	flag.Parse()
	if flag.NArg() != 0 || (*steady == 0 && *name == "") || *seconds < 1 || *traced < 0 || *traced > 1 {
		fmt.Fprintln(os.Stderr, "usage: maoledger --workload NAME [--seed N] [--seconds S] [--trace 0|1]")
		fmt.Fprintln(os.Stderr, "       maoledger --steady N [--seconds S]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *steady > 0 {
		if err := steadiness(os.Stdout, "BENCHMARK.json", *steady, *seconds); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := runOnce(os.Stdout, *name, *seed, *seconds, *traced == 1); err != nil {
		log.Fatal(err)
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOnce runs one workload and prints its report and result line.
func runOnce(out io.Writer, name string, seed uint64, seconds int, traced bool) error {
	w, err := buildWorkload(name, seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "workload %s, seed %d, spec %s\n", w.Name, seed, w.Spec)
	fmt.Fprintf(out, "inputs sha256 %s (%d warm-up and %d timed requests per round, %d sample units)\n",
		w.fingerprint(), len(w.Warm), len(w.Timed), len(w.Sample))
	refs, err := references(w, w.Warm, w.Timed)
	if err != nil {
		return err
	}
	r := newRunner(w, refs, os.Stderr)
	r.scrape = traced
	if err := r.run(time.Duration(seconds) * time.Second); err != nil {
		return err
	}
	s := checkSample(w.Sample, r.answers)
	r.attempted += len(w.Sample)
	for _, e := range s.failures {
		r.fail(e)
	}
	fmt.Fprintf(out, "outputs sha256 %s\n", r.outHash)

	ms := r.endToEnd(s)
	if traced {
		if ms, err = traceRun(r, seed); err != nil {
			return err
		}
	}
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		m := ms[k]
		fmt.Fprintf(out, "  %-26s %14.4f %-8s %s\n", k, m.Value, m.Unit, m.note)
	}
	if !w.Archive {
		timed := len(r.rounds) * len(w.Timed)
		fmt.Fprintf(out, "memo: %d of %d timed requests spliced whole from a shard's memo (%.1f%%)\n",
			r.memoHits, timed, 100*ratio(float64(r.memoHits), float64(timed)))
	}
	steal := make([]float64, len(r.rounds))
	for i, st := range r.rounds {
		steal[i] = 100 * st.steal
	}
	fmt.Fprintf(out, "machine: %.1f%% of its CPU time stolen by the hypervisor in the median round (%.1f%% at most)\n",
		median(steal), slices.Max(steal))
	fmt.Fprintf(out, "operations: %d attempted, %d failed\n", r.attempted, r.failed)
	for _, e := range r.failures {
		fmt.Fprintf(out, "  failure: %v\n", e)
	}
	line, err := json.Marshal(result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: ms})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}
