package memo_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mao/internal/asm"
	"mao/internal/check"
	"mao/internal/corpus"
	"mao/internal/ir"
	"mao/internal/memo"
	"mao/internal/pass"
	"mao/internal/trace"
)

// The acceptance criterion for memoization: across every corpus
// fixture, a representative pipeline matrix and worker counts 1 and
// 8, a memoized run — both the run that fills the memo and the run
// answered from it — emits assembly byte-identical to a cold,
// unmemoized run, with the same check diagnostics and the same
// explain lineage (source lines and provenance). A pipeline that is
// not function-local runs through the same manager with the memo set,
// and must neither be answered from it nor store in it.

var diffSpecs = []struct {
	spec     string
	memoized bool // function-local: the warm run hits every function
}{
	{"", true}, // parse + canonical re-emission
	{"REDTEST:REDMOV", true},
	{"DCE:CONSTFOLD", true},
	{"SCHED", true},
	{"REDZEXT:REDTEST:REDMOV:ADDADD:SCHED", true}, // edit-resubmit's spec
	{"LOOP16", false},             // a unit pass (whole-unit layout)
	{"LOOP16:LSD:BRALIGN", false}, // plus two serial function passes
}

func diffSources(t *testing.T) map[string]string {
	t.Helper()
	fixtures, err := filepath.Glob(filepath.Join("..", "corpus", "testdata", "*.s"))
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no corpus fixtures: %v", err)
	}
	out := make(map[string]string)
	for _, fx := range fixtures {
		b, err := os.ReadFile(fx)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(fx)] = string(b)
	}
	// One generated mid-size workload on top of the checked-in corpus.
	w := corpus.Spec2000Int(0.1)[0]
	out[w.Name+".gen.s"] = corpus.Generate(w)
	return out
}

func TestMemoDifferentialCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the corpus × spec × workers matrix three times over")
	}
	sources := diffSources(t)
	for _, ds := range diffSpecs {
		spec := ds.spec
		for _, workers := range []int{1, 8} {
			m := memo.New(0, "diff")
			for name, src := range sources {
				cold, err := asm.ParseString(name, src)
				if err != nil {
					t.Fatal(err)
				}
				mgrCold, err := pass.NewManager(spec)
				if err != nil {
					t.Fatal(err)
				}
				mgrCold.Workers = workers
				if _, err := mgrCold.Run(cold); err != nil {
					t.Fatalf("%s spec=%q: cold run: %v", name, spec, err)
				}
				want, wantDiags, wantLineage := observe(t, cold)

				run := func(label string) *pass.Stats {
					u, err := asm.ParseString(name, src)
					if err != nil {
						t.Fatal(err)
					}
					mgr, err := pass.NewManager(spec)
					if err != nil {
						t.Fatal(err)
					}
					mgr.Workers = workers
					mgr.Memo = m
					stats, err := mgr.Run(u)
					if err != nil {
						t.Fatalf("%s spec=%q workers=%d: %s run: %v",
							name, spec, workers, label, err)
					}
					got, diags, lineage := observe(t, u)
					if got != want {
						t.Errorf("%s spec=%q workers=%d: %s run differs from cold run",
							name, spec, workers, label)
					}
					if !reflect.DeepEqual(diags, wantDiags) {
						t.Errorf("%s spec=%q workers=%d: %s run's check diagnostics differ from the cold run's:\n%v\nvs\n%v",
							name, spec, workers, label, diags, wantDiags)
					}
					if !reflect.DeepEqual(lineage, wantLineage) {
						t.Errorf("%s spec=%q workers=%d: %s run's explain lineage differs from the cold run's",
							name, spec, workers, label)
					}
					return stats
				}
				run("fill")
				stats := run("warm")
				if !ds.memoized {
					if _, ok := stats.Map()["MEMO"]; ok {
						t.Errorf("%s spec=%q workers=%d: warm run of a pipeline that is not function-local carries a MEMO row:\n%s",
							name, spec, workers, stats)
					}
					continue
				}
				if fns := len(cold.Functions()); fns > 0 &&
					stats.Get("MEMO", "functions") != fns {
					t.Errorf("%s spec=%q workers=%d: warm run did not hit (%d of %d functions), stats:\n%s",
						name, spec, workers, stats.Get("MEMO", "functions"), fns, stats)
				}
			}
			if mm := m.Metrics(); !ds.memoized && mm != (memo.Metrics{}) {
				t.Errorf("spec=%q workers=%d: a pipeline that is not function-local engaged the memo: %+v",
					spec, workers, mm)
			}
		}
	}
}

// observe returns what the service answers for an optimized unit: its
// assembly, check diagnostics and explain lineage, after the analysis
// the service runs before emitting.
func observe(t *testing.T, u *ir.Unit) (string, []check.Diag, []trace.InstLineage) {
	t.Helper()
	if err := u.Analyze(); err != nil {
		t.Fatal(err)
	}
	return u.String(), check.CheckUnit(u), trace.Lineage(u)
}
