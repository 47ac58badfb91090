// Differential tests: the fragment engine (State) against the
// reference full-walk algorithm (Reference). The hard invariant of the
// incremental engine is byte-identity — every address, length, byte
// sequence, section size and iteration count must match the reference
// on every fixture, after every pass, and across randomized edit
// sequences. The file lives in the external test package so it can run
// real pipelines from the pass catalog over the corpus fixtures.
package relax_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mao/internal/asm"
	"mao/internal/corpus"
	"mao/internal/ir"
	"mao/internal/pass"
	_ "mao/internal/passes" // register the pass catalog
	"mao/internal/relax"
	"mao/internal/trace"
	"mao/internal/x86"
	"mao/internal/x86/encode"
)

// diffSources returns every differential fixture: the committed corpus
// units plus hand-written relaxation edge cases.
func diffSources(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	fixtures, err := filepath.Glob(filepath.Join("..", "corpus", "testdata", "*.s"))
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no corpus fixtures found: %v", err)
	}
	for _, path := range fixtures {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(path)] = string(b)
	}
	out["paper"] = `
	push %rbp
	mov %rsp,%rbp
	movl $0x5,-0x4(%rbp)
	jmp .Lcheck
.Lbody:
	addl $0x1,-0x4(%rbp)
	subl $0x1,-0x4(%rbp)
	.skip 119
.Lcheck:
	cmpl $0x0,-0x4(%rbp)
	jne .Lbody
`
	out["sections"] = `
	.text
	nop
	jmp .Ldone
	.data
	.quad 1
	.byte 1,2,3
	.text
	.p2align 4
.Ldone:
	ret
	.section .rodata
	.string "hello"
`
	out["external"] = `
	jmp printf
	call exit
	nop
.Llocal:
	jne .Llocal
	jmp missing_symbol
`
	out["alignchain"] = `
	nop
	.p2align 3
	nop
	.p2align 4,,7
	jmp .Lend
	.skip 120
	.balign 8
.Lend:
	ret
`
	return out
}

// assertSameLayout compares the fragment engine's layout against the
// reference's over every node and label of u.
func assertSameLayout(t *testing.T, tag string, u *ir.Unit, got *relax.Layout, want *relax.RefLayout) {
	t.Helper()
	if got.Iterations != want.Iterations {
		t.Errorf("%s: iterations %d, reference %d", tag, got.Iterations, want.Iterations)
	}
	i := 0
	for n := u.List.Front(); n != nil; n = n.Next() {
		if ga, wa := got.Addr(n), want.Addr[n]; ga != wa {
			t.Errorf("%s: node %d (%s): addr %#x, reference %#x", tag, i, n, ga, wa)
		}
		if gl, wl := got.Len(n), want.Len[n]; gl != wl {
			t.Errorf("%s: node %d (%s): len %d, reference %d", tag, i, n, gl, wl)
		}
		if gb, err := got.Bytes(n); err != nil {
			t.Errorf("%s: node %d (%s): %v", tag, i, n, err)
		} else if wb := want.Bytes[n]; string(gb) != string(wb) {
			t.Errorf("%s: node %d (%s): bytes %x, reference %x", tag, i, n, gb, wb)
		}
		if n.Kind == ir.NodeLabel {
			ga, gok := got.SymAddr(n.Label)
			wa, wok := want.SymAddr(n.Label)
			if gok != wok || ga != wa {
				t.Errorf("%s: label %s: %#x/%v, reference %#x/%v", tag, n.Label, ga, gok, wa, wok)
			}
		}
		i++
	}
	if len(got.SectionEnd) != len(want.SectionEnd) {
		t.Errorf("%s: %d sections, reference %d", tag, len(got.SectionEnd), len(want.SectionEnd))
	}
	for sec, end := range want.SectionEnd {
		if got.SectionEnd[sec] != end {
			t.Errorf("%s: section %s ends at %#x, reference %#x", tag, sec, got.SectionEnd[sec], end)
		}
	}
	if t.Failed() {
		t.FailNow() // one diverged layout produces thousands of lines; stop at the first
	}
}

func mustParse(t *testing.T, name, src string) *ir.Unit {
	t.Helper()
	u, err := asm.ParseString(name, src)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	return u
}

// TestDifferentialFixtures: cold build, warm fast path, and a
// stateless call all match the reference on every fixture.
func TestDifferentialFixtures(t *testing.T) {
	for name, src := range diffSources(t) {
		t.Run(name, func(t *testing.T) {
			u := mustParse(t, name, src)
			want, err := relax.Reference(u, nil)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			st := relax.NewState()
			got, err := relax.Relax(u, &relax.Options{State: st})
			if err != nil {
				t.Fatalf("relax: %v", err)
			}
			assertSameLayout(t, "cold", u, got, want)

			// Warm path on the untouched unit: same result, no rebuild.
			got2, err := relax.Relax(u, &relax.Options{State: st})
			if err != nil {
				t.Fatalf("warm relax: %v", err)
			}
			assertSameLayout(t, "warm", u, got2, want)
			if m := st.Metrics(); m.FastPath == 0 {
				t.Errorf("warm relax of untouched unit missed the fast path: %+v", m)
			}
		})
	}
}

// TestDifferentialAfterPasses runs every pass of the catalog over every
// fixture — at 1 and 8 workers, traced and untraced — with the
// relaxation state threaded through the manager, then checks the warm
// incremental layout of the transformed unit against the reference.
func TestDifferentialAfterPasses(t *testing.T) {
	specs := []string{"DCE:NOPKILL:REDTEST:REDMOV:REDZEXT:ADDADD:CONSTFOLD", "LOOP16", "LSD", "BRALIGN", "SCHED", "NOPIN", "LFIND", "INSTRUMENT"}
	for name, src := range diffSources(t) {
		for _, spec := range specs {
			for _, workers := range []int{1, 8} {
				for _, traced := range []bool{false, true} {
					tag := fmt.Sprintf("%s/%s/w%d/traced=%v", name, spec, workers, traced)
					t.Run(tag, func(t *testing.T) {
						u := mustParse(t, name, src)
						mgr, err := pass.NewManager(spec)
						if err != nil {
							t.Fatal(err)
						}
						mgr.Workers = workers
						if traced {
							mgr.Tracer = trace.NewCollector()
						}
						st := relax.NewState()
						mgr.RelaxState = st
						if _, err := mgr.Run(u); err != nil {
							t.Fatalf("pipeline %s: %v", spec, err)
						}
						if err := u.Analyze(); err != nil {
							t.Fatal(err)
						}
						want, err := relax.Reference(u, nil)
						if err != nil {
							t.Fatalf("reference: %v", err)
						}
						got, err := st.Relax(u, nil)
						if err != nil {
							t.Fatalf("warm relax: %v", err)
						}
						assertSameLayout(t, "after "+spec, u, got, want)
					})
				}
			}
		}
	}
}

// TestDifferentialRandomEdits drives one State through randomized
// label/branch edit sequences — insertions, deletions, new labels,
// branches to internal and external targets — checking byte-identity
// with a from-scratch reference after every single edit.
func TestDifferentialRandomEdits(t *testing.T) {
	srcs := diffSources(t)
	for _, name := range []string{"paper", "sections", "wl_164_gzip.s"} {
		t.Run(name, func(t *testing.T) {
			u := mustParse(t, name, srcs[name])
			st := relax.NewState()
			opts := &relax.Options{State: st}
			rng := rand.New(rand.NewSource(20260806))

			randNode := func() *ir.Node {
				nodes := u.List.Nodes()
				return nodes[rng.Intn(len(nodes))]
			}
			labelNames := func() []string {
				var out []string
				for n := u.List.Front(); n != nil; n = n.Next() {
					if n.Kind == ir.NodeLabel {
						out = append(out, n.Label)
					}
				}
				return out
			}
			var inserted []*ir.Node
			nextLabel := 0

			for step := 0; step < 60; step++ {
				switch op := rng.Intn(6); op {
				case 0: // insert a NOP
					n := ir.InstNode(encode.Nop(1))
					u.List.InsertBefore(n, randNode())
					st.NodeInserted(n)
					inserted = append(inserted, n)
				case 1: // insert a jmp to a random existing label
					if ls := labelNames(); len(ls) > 0 {
						in := x86.NewInst(x86.Mnem{Op: x86.OpJMP}, x86.LabelOp(ls[rng.Intn(len(ls))]))
						n := ir.InstNode(in)
						u.List.InsertAfter(n, randNode())
						st.NodeInserted(n)
						inserted = append(inserted, n)
					}
				case 2: // insert a jcc to a random existing label
					if ls := labelNames(); len(ls) > 0 {
						in := x86.NewInst(x86.Mnem{Op: x86.OpJCC, Cond: x86.CondNE}, x86.LabelOp(ls[rng.Intn(len(ls))]))
						n := ir.InstNode(in)
						u.List.InsertBefore(n, randNode())
						st.NodeInserted(n)
						inserted = append(inserted, n)
					}
				case 3: // insert a jmp to an external symbol
					in := x86.NewInst(x86.Mnem{Op: x86.OpJMP}, x86.LabelOp("extern_sym"))
					n := ir.InstNode(in)
					u.List.InsertBefore(n, randNode())
					st.NodeInserted(n)
					inserted = append(inserted, n)
				case 4: // remove a previously inserted node
					if len(inserted) > 0 {
						i := rng.Intn(len(inserted))
						n := inserted[i]
						inserted = append(inserted[:i], inserted[i+1:]...)
						u.List.Remove(n)
						st.NodeRemoved(n)
					}
				case 5: // define a new label and re-analyze
					n := ir.LabelNode(fmt.Sprintf(".Lrand%d", nextLabel))
					nextLabel++
					u.List.InsertBefore(n, randNode())
					st.NodeInserted(n)
					if err := u.Analyze(); err != nil {
						t.Fatalf("step %d: analyze: %v", step, err)
					}
				}
				want, err := relax.Reference(u, nil)
				if err != nil {
					t.Fatalf("step %d: reference: %v", step, err)
				}
				got, err := relax.Relax(u, opts)
				if err != nil {
					t.Fatalf("step %d: relax: %v", step, err)
				}
				assertSameLayout(t, fmt.Sprintf("step %d", step), u, got, want)
			}
		})
	}
}

// adversarialChain builds k forward branches whose targets sit exactly
// at the rel8 limit while all later branches are short — except the
// last, which is one byte over. Each round of relaxation grows exactly
// one more branch, so the fixpoint needs ~k rounds: a termination and
// equivalence stress for the sweep's grow-only stickiness.
func adversarialChain(k int) string {
	var b strings.Builder
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "\tjmp .L%d\n", i)
	}
	gap := 0
	for i := 0; i < k; i++ {
		want := 127 - 2*(k-i-1)
		if i == k-1 {
			want = 128 // pushes the last branch out of rel8 range
		}
		fmt.Fprintf(&b, "\t.skip %d\n.L%d:\n", want-gap, i)
		gap = want
	}
	b.WriteString("\tret\n")
	return b.String()
}

func TestAdversarialGrowChain(t *testing.T) {
	const k = 40
	src := adversarialChain(k)
	u := mustParse(t, "chain.s", src)
	want, err := relax.Reference(u, nil)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	st := relax.NewState()
	got, err := st.Relax(u, nil)
	if err != nil {
		t.Fatalf("relax: %v", err)
	}
	if got.Iterations < k {
		t.Errorf("chain converged in %d iterations; want >= %d (one growth per round)", got.Iterations, k)
	}
	assertSameLayout(t, "chain", u, got, want)

	// Both engines must hit the iteration cap identically when it is
	// too low for the chain.
	u2 := mustParse(t, "chain.s", src)
	if _, err := relax.Reference(u2, &relax.Options{MaxIterations: 10}); err == nil {
		t.Error("reference: expected iteration-cap error")
	}
	if _, err := relax.Relax(u2, &relax.Options{MaxIterations: 10}); err == nil {
		t.Error("relax: expected iteration-cap error")
	}
}

// Benchmark wrappers: bodies live in internal/bench so cmd/maobench
// -json runs the identical workloads via testing.Benchmark.

func TestDifferentialWorkloadGenerated(t *testing.T) {
	// One larger generated workload beyond the committed fixtures, so
	// the differential suite sees realistic function/section density.
	w := corpus.Spec2000Int(0.1)[3]
	u := mustParse(t, w.Name, corpus.Generate(w))
	want, err := relax.Reference(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := relax.Relax(u, &relax.Options{State: relax.NewState()})
	if err != nil {
		t.Fatal(err)
	}
	assertSameLayout(t, w.Name, u, got, want)
}
