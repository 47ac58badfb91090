package bench

import (
	"fmt"
	"testing"

	"mao/internal/asm"
	"mao/internal/check"
	"mao/internal/corpus"
	"mao/internal/memo"
	"mao/internal/pass"
	"mao/internal/verify"
)

// This file holds the pipeline-memo benchmark and verification bodies:
// BENCH_memo.json measures a memo hit on a freshly parsed unit against
// the same work without a memo, and `maobench -memo` replays the
// synthetic corpus through a shared memo asserting byte-identity, and
// the hit rate or the bypass, for ci.sh.

// benchMemo builds a memo salted exactly like mao.NewMemo, so the
// measured keys pay the same derivation cost production pays.
func benchMemo() *memo.Memo {
	return memo.New(0, pass.CatalogVersion(), check.Version, verify.Version)
}

// memoWarmSpec is the spec edit-resubmit's requests run: every pass a
// ParallelSafe function pass, so the memo keys functions locally.
const memoWarmSpec = "REDZEXT:REDTEST:REDMOV:ADDADD:SCHED"

// MemoWarm measures a warm memo hit as a maod shard serves one: each
// op parses the bench unit fresh, runs memoWarmSpec through a new
// manager (one worker) on one shared memo, and renders the unit. One
// untimed op fills the memo; every timed op should then hit every
// function. The memo-hit-rate metric is the share of timed ops that
// did.
func MemoWarm(b *testing.B) { memoWarm(b, benchMemo()) }

// MemoWarmReference is MemoWarm without a memo: every op runs the
// pipeline cold.
func MemoWarmReference(b *testing.B) { memoWarm(b, nil) }

func memoWarm(b *testing.B, m *memo.Memo) {
	name, src := relaxBenchSource()
	op := func() (hit bool, err error) {
		u, err := asm.ParseString(name, src)
		if err != nil {
			return false, err
		}
		mgr, err := pass.NewManager(memoWarmSpec)
		if err != nil {
			return false, err
		}
		mgr.Workers = 1
		mgr.Memo = m
		st, err := mgr.Run(u)
		if err != nil {
			return false, err
		}
		_ = u.String()
		fns := len(u.Functions())
		return fns > 0 && st.Get("MEMO", "functions") == fns, nil
	}
	if _, err := op(); err != nil { // fill the memo
		b.Fatal(err)
	}
	hits := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit, err := op()
		if err != nil {
			b.Fatal(err)
		}
		if hit {
			hits++
		}
	}
	b.StopTimer()
	if m != nil {
		b.ReportMetric(float64(hits)/float64(b.N), "memo-hit-rate")
	}
}

// MeasureMemoBench runs the warm-memo benchmark and its memo-less
// reference through testing.Benchmark, yielding the memoization
// speedup. It fails unless every function of every timed op hit the
// memo: the speedup is well under 2x, so the ns/op regression check
// alone would not notice the memo switched off.
func MeasureMemoBench() (*BenchResult, error) {
	res := testing.Benchmark(MemoWarm)
	if res.N == 0 {
		return nil, fmt.Errorf("MemoWarm benchmark failed to run")
	}
	if rate := res.Extra["memo-hit-rate"]; rate != 1 {
		return nil, fmt.Errorf("MemoWarm: %.3f of timed ops hit the memo in every function, want all", rate)
	}
	ref := testing.Benchmark(MemoWarmReference)
	if ref.N == 0 {
		return nil, fmt.Errorf("MemoWarmReference benchmark failed to run")
	}
	r := &BenchResult{
		Benchmark:        "MemoWarm",
		NsPerOp:          float64(res.NsPerOp()),
		BytesPerOp:       res.AllocedBytesPerOp(),
		AllocsPerOp:      res.AllocsPerOp(),
		ReferenceNsPerOp: float64(ref.NsPerOp()),
	}
	if r.NsPerOp > 0 {
		r.Speedup = r.ReferenceNsPerOp / r.NsPerOp
	}
	return r, nil
}

// MemoVerifyResult summarizes one MemoCorpusVerify run.
type MemoVerifyResult struct {
	Spec      string  // pipeline verified
	Sources   int     // corpus units replayed per round
	Functions int     // functions per round
	Rounds    int     // repeat rounds (round 1 fills, the rest hit)
	HitRate   float64 // memo hits / (hits + misses) across all rounds
	Probes    uint64  // memo hits + misses across all rounds
	Stores    uint64  // entries stored across all rounds
}

// MemoCorpusVerify replays the synthetic corpus repeatedly through one
// shared memo: it runs every workload under spec cold (no memo) to pin
// the expected bytes, then rounds× from a fresh parse through the
// memo, failing on the first output that is not byte-identical to the
// cold run. The result carries the memo traffic observed; policy
// (ci.sh demands a hit rate above 0.9 of a function-local spec, and no
// probe or store for any other) lives in the caller.
func MemoCorpusVerify(spec string, scale float64, rounds int) (MemoVerifyResult, error) {
	if rounds < 2 {
		rounds = 2
	}
	res := MemoVerifyResult{Spec: spec, Rounds: rounds}
	type source struct{ name, src, want string }
	var sources []source
	for _, w := range corpus.Spec2000Int(scale) {
		src := corpus.Generate(w)
		u, err := asm.ParseString(w.Name+".s", src)
		if err != nil {
			return res, err
		}
		mgr, err := pass.NewManager(spec)
		if err != nil {
			return res, err
		}
		if _, err := mgr.Run(u); err != nil {
			return res, fmt.Errorf("%s %s: cold run: %w", spec, w.Name, err)
		}
		sources = append(sources, source{name: w.Name, src: src, want: u.String()})
		res.Functions += len(u.Functions())
	}
	res.Sources = len(sources)
	m := benchMemo()
	for round := 1; round <= rounds; round++ {
		for _, s := range sources {
			u, err := asm.ParseString(s.name+".s", s.src)
			if err != nil {
				return res, err
			}
			mgr, err := pass.NewManager(spec)
			if err != nil {
				return res, err
			}
			mgr.Memo = m
			if _, err := mgr.Run(u); err != nil {
				return res, fmt.Errorf("%s %s round %d: %w", spec, s.name, round, err)
			}
			if got := u.String(); got != s.want {
				return res, fmt.Errorf("%s %s round %d: memoized output differs from cold run",
					spec, s.name, round)
			}
		}
	}
	mm := m.Metrics()
	res.Probes, res.Stores = mm.Hits+mm.Misses, mm.Stores
	if res.Probes > 0 {
		res.HitRate = float64(mm.Hits) / float64(res.Probes)
	}
	return res, nil
}
