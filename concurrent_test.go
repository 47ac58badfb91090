package mao_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"mao"
)

// TestConcurrentPipelines runs RunPipelineParallel from many goroutines
// over distinct units simultaneously — the usage pattern of the maod
// service worker pool. Under -race this pins down that the pass
// registry and per-run statistics carry no cross-invocation state:
// every goroutine must see exactly the output and stats a solo run
// produces.
func TestConcurrentPipelines(t *testing.T) {
	fixtures, err := filepath.Glob(filepath.Join("internal", "corpus", "testdata", "*.s"))
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no corpus fixtures: %v", err)
	}
	specs := []string{"REDTEST:REDMOV", "DCE:CONSTFOLD", "SCHED", "LOOP16"}

	type combo struct{ fixture, spec string }
	var combos []combo
	sources := map[string]string{}
	for _, fx := range fixtures {
		b, err := os.ReadFile(fx)
		if err != nil {
			t.Fatal(err)
		}
		sources[fx] = string(b)
		for _, spec := range specs {
			combos = append(combos, combo{fx, spec})
		}
	}

	// Reference outputs from sequential solo runs.
	wantAsm := map[combo]string{}
	wantStats := map[combo]string{}
	for _, c := range combos {
		u, err := mao.ParseString(c.fixture, sources[c.fixture])
		if err != nil {
			t.Fatal(err)
		}
		st, err := mao.RunPipeline(u, c.spec)
		if err != nil {
			t.Fatalf("%s %s: %v", c.fixture, c.spec, err)
		}
		wantAsm[c] = u.String()
		wantStats[c] = st.String()
	}

	// Hammer: every combination three times over, with per-pipeline
	// parallelism on top.
	const replicas = 3
	var wg sync.WaitGroup
	errs := make(chan string, len(combos)*replicas)
	for rep := 0; rep < replicas; rep++ {
		for _, c := range combos {
			wg.Add(1)
			go func(c combo, rep int) {
				defer wg.Done()
				u, err := mao.ParseString(c.fixture, sources[c.fixture])
				if err != nil {
					errs <- fmt.Sprintf("%v %s parse: %v", c, "", err)
					return
				}
				opts := mao.Options{Workers: 1 + rep} // vary worker counts
				st, err := mao.RunPipelineParallel(u, c.spec, opts)
				if err != nil {
					errs <- fmt.Sprintf("%v rep=%d: %v", c, rep, err)
					return
				}
				if got := u.String(); got != wantAsm[c] {
					errs <- fmt.Sprintf("%v rep=%d: output differs from solo run", c, rep)
				}
				// Every counter matches the solo run exactly.
				got, want := st.String(), wantStats[c]
				if got != want {
					errs <- fmt.Sprintf("%v rep=%d: stats differ from solo run:\n got %q\nwant %q",
						c, rep, got, want)
				}
			}(c, rep)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
