package pass_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"mao/internal/asm"
	"mao/internal/corpus"
	"mao/internal/ir"
	"mao/internal/pass"
	_ "mao/internal/passes"
)

const layoutSpec = "REDZEXT:REDTEST:REDMOV:ADDADD:SCHED:LOOP16"

// templateSources renders the 19 corpus templates at each scale, with
// hot-loop trips and entries divided by 20, as the benchmark's unit
// generator builds them.
func templateSources(scales ...float64) map[string]string {
	out := map[string]string{}
	for _, scale := range scales {
		for _, w := range append(corpus.Spec2000Int(scale), corpus.Spec2006Subset(scale)...) {
			w.Hot = append([]corpus.Hotspot(nil), w.Hot...)
			for i := range w.Hot {
				if w.Hot[i].Trips > 0 {
					w.Hot[i].Trips = max(2, w.Hot[i].Trips/20)
				}
				if w.Hot[i].Entries > 0 {
					w.Hot[i].Entries = max(1, w.Hot[i].Entries/20)
				}
			}
			out[fmt.Sprintf("%s@%.1f", w.Name, scale)] = corpus.Generate(w)
		}
	}
	return out
}

func runSpec(t *testing.T, name, src, spec string, workers int) int {
	t.Helper()
	u, err := asm.ParseString(name, src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	mgr, err := pass.NewManager(spec)
	if err != nil {
		t.Fatal(err)
	}
	mgr.Workers = workers
	if _, err := mgr.Run(u); err != nil {
		t.Fatalf("%s: %s: %v", name, spec, err)
	}
	return len(u.Functions())
}

// TestAnalysesPerFunction pins how often the layout spec computes a
// function's analyses: once per function state, not once per pass. The
// six passes would build six CFGs and solve liveness three times per
// function if each built its own.
func TestAnalysesPerFunction(t *testing.T) {
	var counts pass.AnalysisCounts
	defer pass.CountAnalyses(&counts)()
	funcs := 0
	for name, src := range templateSources(0.1, 0.2, 0.3, 0.4) {
		funcs += runSpec(t, name, src, layoutSpec, 1)
	}
	cfgs := float64(counts.CFG.Load()) / float64(funcs)
	lives := float64(counts.Live.Load()) / float64(funcs)
	t.Logf("%d functions: %d CFG builds (%.2f per function), %d liveness solves (%.2f)",
		funcs, counts.CFG.Load(), cfgs, counts.Live.Load(), lives)
	if cfgs > 3.5 {
		t.Errorf("%.2f CFG builds per function, want at most 3.5", cfgs)
	}
	if lives > 1.9 {
		t.Errorf("%.2f liveness solves per function, want at most 1.9", lives)
	}
}

// TestAnalysisReuseSound rebuilds every analysis the table hands out
// again and compares it with the one handed out, over the corpus
// fixtures and the templates at two scales, under pipelines that edit
// through every helper, at one and eight workers.
func TestAnalysisReuseSound(t *testing.T) {
	srcs := templateSources(0.1, 0.2)
	fixtures, err := filepath.Glob("../corpus/testdata/*.s")
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no corpus fixtures: %v", err)
	}
	for _, path := range fixtures {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(path)] = string(b)
	}
	var reused atomic.Int64
	defer pass.CheckReuse(t.Errorf, &reused)()
	for _, spec := range []string{
		layoutSpec,
		"REDZEXT:REDTEST:REDMOV:ADDADD:SCHED",
		"LOOP16:LSD:BRALIGN",
		"DCE:CONSTFOLD",
		"NOPIN:SCHED:REDTEST",
	} {
		for _, workers := range []int{1, 8} {
			before := reused.Load()
			for name, src := range srcs {
				runSpec(t, name, src, spec, workers)
			}
			if reused.Load() == before {
				t.Errorf("%s at %d workers reused no analysis", spec, workers)
			}
		}
	}
	t.Logf("%d reuses checked", reused.Load())
}

// rawDelete removes each function's first instruction straight from
// the list, bypassing the Ctx helpers.
type rawDelete struct{}

func (rawDelete) Name() string        { return "RAWDELETE" }
func (rawDelete) Description() string { return "test pass editing the list without the Ctx helpers" }
func (rawDelete) RunFunc(ctx *pass.Ctx, f *ir.Function) (bool, error) {
	insts := f.Instructions()
	if len(insts) == 0 {
		return false, nil
	}
	ctx.Unit.List.Remove(insts[0])
	return true, nil
}

// TestAnalysesDroppedAfterUnmediatedEdit runs LFIND, a pass that edits
// without the helpers, and LFIND again: the second LFIND must rebuild
// every graph rather than reuse one the edit made stale.
func TestAnalysesDroppedAfterUnmediatedEdit(t *testing.T) {
	var counts pass.AnalysisCounts
	var reused atomic.Int64
	defer pass.CountAnalyses(&counts)()
	defer pass.CheckReuse(t.Errorf, &reused)()
	lfind := pass.Lookup("LFIND")
	for _, workers := range []int{1, 8} {
		counts.CFG.Store(0)
		u, err := asm.ParseString("gen.s", corpus.Generate(corpus.Spec2000Int(0.1)[0]))
		if err != nil {
			t.Fatal(err)
		}
		m := &pass.Manager{Workers: workers, Pipeline: []pass.Invocation{
			{Pass: lfind, Opts: pass.NewOptions()},
			{Pass: rawDelete{}, Opts: pass.NewOptions()},
			{Pass: lfind, Opts: pass.NewOptions()},
		}}
		if _, err := m.Run(u); err != nil {
			t.Fatal(err)
		}
		if got, want := counts.CFG.Load(), int64(2*len(u.Functions())); got != want {
			t.Errorf("workers %d: %d CFG builds, want %d (one per function per LFIND)", workers, got, want)
		}
	}
	if reused.Load() != 0 {
		t.Errorf("%d graphs reused across an edit made without the helpers", reused.Load())
	}
}

// BenchmarkLayoutPipeline runs the layout spec at one worker over the
// 76 template units of TestAnalysesPerFunction. Each op parses the
// units outside the timer, so bytes and allocations per op are the
// pipeline's alone.
func BenchmarkLayoutPipeline(b *testing.B) {
	srcs := templateSources(0.1, 0.2, 0.3, 0.4)
	mgr, err := pass.NewManager(layoutSpec)
	if err != nil {
		b.Fatal(err)
	}
	mgr.Workers = 1
	units := make([]*ir.Unit, 0, len(srcs))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		units = units[:0]
		for name, src := range srcs {
			u, err := asm.ParseString(name, src)
			if err != nil {
				b.Fatal(err)
			}
			units = append(units, u)
		}
		b.StartTimer()
		for _, u := range units {
			if _, err := mgr.Run(u); err != nil {
				b.Fatal(err)
			}
		}
	}
}
