package relax_test

import (
	"testing"

	"mao/internal/bench"
)

// The benchmark bodies live in internal/bench so cmd/maobench -json
// runs the identical workloads through testing.Benchmark and records
// them in BENCH_relax.json; these wrappers expose them to `go test
// -bench` (and ci.sh's bench smoke).

// BenchmarkRelaxRepeated is the acceptance benchmark for incremental
// relaxation: a steady-state edit→relax cycle with one reused State.
func BenchmarkRelaxRepeated(b *testing.B) { bench.RelaxRepeated(b) }

// BenchmarkRelaxRepeatedReference is the same cycle on the pre-fragment
// full-walk algorithm — the baseline for the speedup ratio.
func BenchmarkRelaxRepeatedReference(b *testing.B) { bench.RelaxRepeatedReference(b) }

// BenchmarkPipelineRepeated measures repeated alignment pipelines over
// one unit through one manager with a persistent relaxation state.
func BenchmarkPipelineRepeated(b *testing.B) { bench.PipelineRepeated(b) }

// BenchmarkMemoWarm is a memo hit as a shard serves one: parse the
// unit fresh, run edit-resubmit's spec on a warm shared memo, render.
func BenchmarkMemoWarm(b *testing.B) { bench.MemoWarm(b) }

// BenchmarkMemoWarmReference is the same op without a memo. The ratio
// of the two is the memoization speedup recorded in BENCH_memo.json.
func BenchmarkMemoWarmReference(b *testing.B) { bench.MemoWarmReference(b) }
