package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchFile struct {
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []bound `json:"per_layer"`
}

func readBench(path string) (*benchFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// sets is how many sets of runs the steadiness mode compares: two
// sets of the same code are an A/A test.
const sets = 2

// steadiness runs every workload n times per set, each run a separate
// process with its own seed (set k uses seeds k*n+1 .. k*n+n), and
// prints each end-to-end metric's median and quartiles per set. It
// flags a metric whose quartile spread, as a share of its median,
// exceeds its bound ("OVER") or a third of it ("wide", the tuning
// target), and a set whose median is worse than the first set's by
// more than the bound ("DRIFT").
func steadiness(out io.Writer, benchPath string, n, seconds int) error {
	bf, err := readBench(benchPath)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// vals[workload][metric][set] holds one value per run.
	vals := map[string]map[string][][]float64{}
	for _, wl := range workloadNames {
		vals[wl] = map[string][][]float64{}
	}
	for set := 0; set < sets; set++ {
		for i := 1; i <= n; i++ {
			seed := set*n + i
			for _, wl := range workloadNames {
				res, err := runChild(self, wl, seed, seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", wl, seed, err)
				}
				if !res.Correct || res.Failed > 0 {
					return fmt.Errorf("%s seed %d: %d of %d operations failed", wl, seed, res.Failed, res.Attempted)
				}
				fmt.Fprintf(os.Stderr, "steady: set %d, %s seed %d done\n", set+1, wl, seed)
				for _, b := range bf.EndToEnd {
					m := vals[wl][b.Name]
					for len(m) <= set {
						m = append(m, nil)
					}
					m[set] = append(m[set], res.Metrics[b.Name].Value)
					vals[wl][b.Name] = m
				}
			}
		}
	}

	over := 0
	fmt.Fprintf(out, "%-15s %-17s %3s %12s %12s %12s %7s %6s  %s\n",
		"workload", "metric", "set", "median", "q1", "q3", "spread", "bound", "flags")
	for _, wl := range workloadNames {
		for _, b := range bf.EndToEnd {
			var first float64
			for set, xs := range vals[wl][b.Name] {
				q1, med, q3 := quartiles(xs)
				spread := ratio(q3-q1, med)
				flags := ""
				switch {
				case spread > b.Bound:
					flags, over = "OVER", over+1
				case spread > b.Bound/3:
					flags = "wide"
				}
				if set == 0 {
					first = med
				} else if worse := ratio(med-first, first); (b.Better == "lower" && worse > b.Bound) || (b.Better == "higher" && -worse > b.Bound) {
					flags, over = flags+" DRIFT", over+1
				}
				fmt.Fprintf(out, "%-15s %-17s %3d %12.4f %12.4f %12.4f %6.1f%% %5.0f%%  %s\n",
					wl, b.Name, set+1, med, q1, q3, 100*spread, 100*b.Bound, flags)
			}
		}
	}
	fmt.Fprintf(out, "steady: %d runs per set, %d sets, %d flags over a bound\n", n, sets, over)
	return nil
}

// runChild runs one benchmark run as a child process and parses its
// result line.
func runChild(self, wl string, seed, seconds int) (*result, error) {
	var stdout bytes.Buffer
	cmd := exec.Command(self, "--workload", wl, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stdout = &stdout
	cmd.Stderr = io.Discard
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("parsing the result line: %w", err)
	}
	return &res, nil
}
