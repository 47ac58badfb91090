package mao_test

import (
	"os"
	"path/filepath"
	"testing"

	"mao"
	"mao/internal/corpus"
)

// roundtripSources collects every checked-in assembly fixture: the
// corpus golden files and cmd/mao's test inputs.
func roundtripSources(t *testing.T) []string {
	t.Helper()
	var files []string
	for _, dir := range []string{"internal/corpus/testdata", "cmd/mao/testdata"} {
		err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
			if err != nil {
				return err
			}
			if !info.IsDir() && filepath.Ext(path) == ".s" {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(files) == 0 {
		t.Fatal("no assembly fixtures found")
	}
	return files
}

// TestRoundtripIdempotence: parse → emit → reparse → emit must be a
// fixpoint — the second emission is byte-identical to the first. This
// pins the parser and printer as exact inverses over everything either
// of them produces, the property the whole assembly-to-assembly design
// rests on.
func TestRoundtripIdempotence(t *testing.T) {
	for _, path := range roundtripSources(t) {
		t.Run(filepath.Base(path), func(t *testing.T) {
			u1, err := mao.ParseFile(path)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			emit1 := u1.String()
			u2, err := mao.ParseString(path+"#2", emit1)
			if err != nil {
				t.Fatalf("reparse of own output: %v", err)
			}
			if emit2 := u2.String(); emit2 != emit1 {
				t.Errorf("second emission differs from first")
			}
		})
	}
}

// TestRoundtripGeneratedCorpus extends the fixpoint check to freshly
// generated corpus units, which exercise constructs the small golden
// files may not.
func TestRoundtripGeneratedCorpus(t *testing.T) {
	for _, wl := range corpus.Spec2000Int(0.05)[:3] {
		t.Run(wl.Name, func(t *testing.T) {
			u1, err := mao.ParseString(wl.Name+".s", corpus.Generate(wl))
			if err != nil {
				t.Fatal(err)
			}
			emit1 := u1.String()
			u2, err := mao.ParseString(wl.Name+"#2", emit1)
			if err != nil {
				t.Fatalf("reparse of own output: %v", err)
			}
			if emit2 := u2.String(); emit2 != emit1 {
				t.Errorf("second emission differs from first")
			}
		})
	}
}

// fullPipeline is a representative pipeline mixing parallel-safe
// function passes with serial alignment passes.
const fullPipeline = "REDZEXT:REDTEST:REDMOV:ADDADD:DCE:CONSTFOLD:NOPKILL:SCHED:LOOP16"

// TestPipelineWorkerDeterminism: the full pipeline over the corpus
// fixtures emits byte-identical assembly and identical merged Stats at
// workers = 1, 2 and 8.
func TestPipelineWorkerDeterminism(t *testing.T) {
	for _, wl := range corpus.Spec2000Int(0.05)[:3] {
		t.Run(wl.Name, func(t *testing.T) {
			src := corpus.Generate(wl)

			run := func(workers int) (string, string) {
				u, err := mao.ParseString(wl.Name+".s", src)
				if err != nil {
					t.Fatal(err)
				}
				stats, err := mao.RunPipelineParallel(u, fullPipeline,
					mao.Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				return u.String(), stats.String()
			}

			baseOut, baseStats := run(1)
			for _, workers := range []int{2, 8} {
				out, stats := run(workers)
				if out != baseOut {
					t.Errorf("workers=%d: emitted assembly differs from sequential", workers)
				}
				if stats != baseStats {
					t.Errorf("workers=%d: stats differ:\n%s\nvs\n%s", workers, stats, baseStats)
				}
			}
		})
	}
}
