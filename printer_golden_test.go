package mao_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mao"
	"mao/internal/corpus"
)

var updatePrinterGolden = flag.Bool("update-printer-golden", false,
	"rewrite testdata/printer from the current printer and pipeline")

// goldenPipeline is the pipeline whose output the printer golden files
// pin: every peephole, the scheduler (which reorders) and LOOP16 (which
// relaxes and synthesizes alignment directives).
const goldenPipeline = "REDZEXT:REDTEST:REDMOV:ADDADD:SCHED:LOOP16"

type goldenInput struct{ name, source string }

// goldenInputs are the units the printer golden files cover: every
// checked-in assembly fixture plus one unit per corpus template at
// scale 0.05.
func goldenInputs(t *testing.T) []goldenInput {
	t.Helper()
	var in []goldenInput
	for _, path := range roundtripSources(t) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		in = append(in, goldenInput{strings.ReplaceAll(filepath.ToSlash(path), "/", "_"), string(b)})
	}
	for _, w := range append(corpus.Spec2000Int(0.05), corpus.Spec2006Subset(0.05)...) {
		in = append(in, goldenInput{"corpus_" + w.Name + ".s", corpus.Generate(w)})
	}
	return in
}

// TestPrinterGolden pins the printer, and the pipeline's output bytes,
// to checked-in text. The byte-identity differential suites compare
// two paths that share one printer, so a printer change that agrees
// with itself passes them all; this test compares against text fixed
// in the repository. Regenerate (only for an intended output change)
// with:
//
//	go test -run PrinterGolden -update-printer-golden .
func TestPrinterGolden(t *testing.T) {
	for _, in := range goldenInputs(t) {
		t.Run(in.name, func(t *testing.T) {
			u, err := mao.ParseString(in.name, in.source)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, in.name+".parsed", u.String())
			checkAppendTo(t, u)
			if _, err := mao.RunPipeline(u, goldenPipeline); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, in.name+".optimized", u.String())
			checkAppendTo(t, u)
		})
	}
}

// checkAppendTo asserts, for every node of u, that AppendTo appends
// exactly what String returns, and that appending the unit's nodes
// into a buffer with room allocates nothing.
func checkAppendTo(t *testing.T, u *mao.Unit) {
	t.Helper()
	for n := u.List.Front(); n != nil; n = n.Next() {
		if got, want := string(n.AppendTo([]byte("#"))), "#"+n.String(); got != want {
			t.Fatalf("AppendTo = %q, want %q", got, want)
		}
	}
	buf := make([]byte, 0, 1<<12)
	allocs := testing.AllocsPerRun(5, func() {
		for n := u.List.Front(); n != nil; n = n.Next() {
			buf = n.AppendTo(buf[:0])
		}
	})
	if allocs != 0 {
		t.Errorf("appending every node into a buffer with room allocates %.1f times, want 0", allocs)
	}
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "printer", name)
	if *updatePrinterGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s missing (run with -update-printer-golden): %v", path, err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: line %d differs:\n got %q\nwant %q", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
}
