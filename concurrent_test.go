package mao_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"mao"
	"mao/internal/ir"
	"mao/internal/pass"
	"mao/internal/relax"
)

// TestConcurrentPipelines runs RunPipelineParallel from many goroutines
// over distinct units simultaneously — the usage pattern of the maod
// service worker pool. Under -race this pins down that the pass
// registry, the shared encoding cache, and per-run statistics carry no
// cross-invocation state: every goroutine must see exactly the output
// and stats a solo run produces.
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

	// Hammer: every combination three times over, all goroutines
	// sharing one encoding cache, with per-pipeline parallelism on top.
	shared := mao.NewCache()
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
				if rep%2 == 0 {
					opts.Cache = shared
				}
				st, err := mao.RunPipelineParallel(u, c.spec, opts)
				if err != nil {
					errs <- fmt.Sprintf("%v rep=%d: %v", c, rep, err)
					return
				}
				if got := u.String(); got != wantAsm[c] {
					errs <- fmt.Sprintf("%v rep=%d: output differs from solo run", c, rep)
				}
				// A shared cache must not show in the stats: every
				// counter matches the solo run exactly.
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

// interleave is a pass hook that, before the invocation at index at,
// runs spec over a second unit through the same encoding cache: the
// lookups of another request landing in the middle of a run, as on a
// maod shard, whose workers share one cache.
type interleave struct {
	t     *testing.T
	at    int
	spec  string
	src   string
	cache *relax.Cache
	ran   bool
}

func (h *interleave) BeforePass(_ *ir.Unit, _ string, index int) error {
	if index != h.at {
		return nil
	}
	u, err := mao.ParseString("other.s", h.src)
	if err != nil {
		return err
	}
	mgr, err := pass.NewManager(h.spec)
	if err != nil {
		return err
	}
	mgr.Cache = h.cache
	hits, misses := h.cache.Counters()
	if _, err := mgr.Run(u); err != nil {
		return err
	}
	if h2, m2 := h.cache.Counters(); h2 == hits && m2 == misses {
		h.t.Error("the interleaved run made no cache lookups")
	}
	h.ran = true
	return nil
}

func (h *interleave) AfterPass(*ir.Unit, string, int) error { return nil }

// TestSharedCacheRunStats: a run reports the same statistics whether
// or not another unit's pipeline uses its encoding cache between two of
// its passes. The cache's lookups are counted by the cache alone.
func TestSharedCacheRunStats(t *testing.T) {
	const spec = "REDTEST:LOOP16:BRALIGN"
	read := func(name string) string {
		b, err := os.ReadFile(filepath.Join("internal", "corpus", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	src, other := read("wl_164_gzip.s"), read("wl_175_vpr.s")
	run := func(hook pass.Hook, cache *relax.Cache) (string, string) {
		t.Helper()
		u, err := mao.ParseString("wl_164_gzip.s", src)
		if err != nil {
			t.Fatal(err)
		}
		mgr, err := pass.NewManager(spec)
		if err != nil {
			t.Fatal(err)
		}
		mgr.Workers = 1
		mgr.Cache = cache
		mgr.Hook = hook
		st, err := mgr.Run(u)
		if err != nil {
			t.Fatal(err)
		}
		return u.String(), st.String()
	}
	wantAsm, wantStats := run(nil, relax.NewCache())
	cache := relax.NewCache()
	h := &interleave{t: t, at: 1, spec: spec, src: other, cache: cache}
	gotAsm, gotStats := run(h, cache)
	if !h.ran {
		t.Fatal("the hook never ran the second pipeline")
	}
	if gotAsm != wantAsm {
		t.Error("the interleaved run changed the output")
	}
	if gotStats != wantStats {
		t.Errorf("stats differ from the solo run:\n got %q\nwant %q", gotStats, wantStats)
	}
}
