package bench

import (
	"fmt"
	"strings"
	"testing"

	"mao/internal/asm"
	"mao/internal/corpus"
	"mao/internal/relax"
	"mao/internal/uarch"
	"mao/internal/uarch/exec"
	"mao/internal/uarch/sim"
)

// execState runs a workload unit and returns its final architectural
// register state plus the number of executed store events — the
// observable semantics every optimization pass must preserve. (Memory
// itself is not compared: stale stack frames hold return addresses and
// data tables hold label addresses, both of which legitimately shift
// when code size changes.)
func execState(t *testing.T, w corpus.Workload, pipeline string) ([16]uint64, [16]uint64, int64) {
	t.Helper()
	u, err := Prepare(w)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	if _, err := Optimize(u, pipeline); err != nil {
		t.Fatalf("%s pipeline %q: %v", w.Name, pipeline, err)
	}
	layout, err := relax.Relax(u, nil)
	if err != nil {
		t.Fatalf("%s: relax: %v", w.Name, err)
	}
	var stores int64
	res, err := exec.Run(&exec.Config{
		Unit: u, Layout: layout, Entry: w.EntryName(),
		MaxInsts: MaxInsts,
		OnEvent: func(ev exec.Event) {
			if ev.HasStore {
				stores++
			}
		},
	})
	if err != nil {
		t.Fatalf("%s after %q: exec: %v", w.Name, pipeline, err)
	}
	return res.State.GPR, res.State.XMM, stores
}

// TestSemanticPreservation is the repository's strongest invariant:
// every transforming pass, applied to every synthetic workload, must
// leave the program's observable results (final registers, store
// count) unchanged. This is the dynamic analog of the paper's
// disassemble-and-compare verification, extended from "no
// transformation" to "every transformation".
func TestSemanticPreservation(t *testing.T) {
	passes := []string{
		"REDZEXT", "REDTEST", "REDMOV", "ADDADD",
		"LOOP16", "LSD", "BRALIGN",
		"NOPIN=seed[9],density[10],maxlen[2]", "NOPKILL",
		"INSTRUMENT", "SCHED", "SCHED=costfn[ports]",
		"DCE", "CONSTFOLD",
		// The paper's Figure 7 combination.
		"LOOP16:NOPIN=seed[3],density[2]:REDMOV:REDTEST:SCHED",
	}
	workloads := append(corpus.Spec2000Int(0.02), corpus.Spec2006Subset(0.02)...)
	// A sampled cross product keeps the test fast while every pass
	// and every workload appears several times.
	for wi, w := range workloads {
		w := w
		for pi, p := range passes {
			if (wi+pi)%4 != 0 && !testing.Verbose() {
				continue
			}
			name := fmt.Sprintf("%s/%s", w.Name, strings.SplitN(p, "=", 2)[0])
			t.Run(name, func(t *testing.T) {
				gprA, xmmA, storesA := execState(t, w, "")
				gprB, xmmB, storesB := execState(t, w, p)
				if gprA != gprB {
					t.Errorf("pass %q changed final GPR state\n base: %x\n opt:  %x", p, gprA, gprB)
				}
				if xmmA != xmmB {
					t.Errorf("pass %q changed final XMM state", p)
				}
				if storesA != storesB {
					t.Errorf("pass %q changed store count: %d -> %d", p, storesA, storesB)
				}
			})
		}
	}
}

// TestRoundTripVerification is the paper's Section III-A check: with
// no transformations, parse -> emit -> parse -> emit must be a fixed
// point, and the relaxed binary encodings of both emissions must be
// byte-identical (our analog of assembling both and comparing
// disassembly).
func TestRoundTripVerification(t *testing.T) {
	for _, w := range append(corpus.Spec2000Int(0.02), corpus.CoreLibrary(0.01)) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			u1, err := Prepare(w)
			if err != nil {
				t.Fatal(err)
			}
			s1 := u1.String()
			// Parse the emission and emit again.
			u3, err := asm.ParseString(w.Name+".s", s1)
			if err != nil {
				t.Fatalf("reparse: %v", err)
			}
			s2 := u3.String()
			if s1 != s2 {
				t.Fatal("emission is not a parse/print fixed point")
			}
			l1, err := relax.Relax(u1, nil)
			if err != nil {
				t.Fatal(err)
			}
			l3, err := relax.Relax(u3, nil)
			if err != nil {
				t.Fatal(err)
			}
			if l1.SectionEnd[".text"] != l3.SectionEnd[".text"] {
				t.Fatalf("relaxed sizes differ: %d vs %d",
					l1.SectionEnd[".text"], l3.SectionEnd[".text"])
			}
			img1, err := l1.Image(u1, ".text")
			if err != nil {
				t.Fatal(err)
			}
			img3, err := l3.Image(u3, ".text")
			if err != nil {
				t.Fatal(err)
			}
			if string(img1) != string(img3) {
				t.Fatal("relaxed byte images differ")
			}
		})
	}
}

// TestCorpusDeterminism: the same workload definition must generate
// byte-identical assembly (the experiments depend on it).
func TestCorpusDeterminism(t *testing.T) {
	w := corpus.Spec2000Int(0.05)[3]
	if corpus.Generate(w) != corpus.Generate(w) {
		t.Fatal("corpus generation is not deterministic")
	}
}

// TestCorpusStaticCountsScale: CoreLibrary at scale 1 must carry the
// paper's exact planted pattern counts (spot-checked via pass stats at
// a smaller scale for speed; the full-scale check runs in maobench).
func TestCorpusStaticCounts(t *testing.T) {
	u, err := Prepare(corpus.CoreLibrary(0.02))
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Optimize(u, "REDZEXT:REDTEST:REDMOV")
	if err != nil {
		t.Fatal(err)
	}
	// At scale 0.02: 20 zexts, 385 redundant tests, 267 load pairs.
	if got := stats.Get("REDZEXT", "removed"); got < 15 || got > 25 {
		t.Errorf("REDZEXT removed %d, want ~20", got)
	}
	if got := stats.Get("REDTEST", "removed"); got < 350 || got > 420 {
		t.Errorf("REDTEST removed %d, want ~385", got)
	}
	rm := stats.Get("REDMOV", "rewritten") + stats.Get("REDMOV", "removed")
	if rm < 240 || rm > 300 {
		t.Errorf("REDMOV handled %d, want ~267", rm)
	}
}

// TestAllWorkloadsExecute: every named workload must parse, relax and
// run to completion on both machine models.
func TestAllWorkloadsExecute(t *testing.T) {
	for _, w := range append(corpus.Spec2000Int(0.02), corpus.Spec2006Subset(0.02)...) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for _, m := range []*uarch.CPUModel{uarch.Core2(), uarch.Opteron()} {
				r, err := RunWorkload(w, "", m)
				if err != nil {
					t.Fatalf("%s: %v", m.Name, err)
				}
				if r.Counters.Cycles == 0 || r.Executed == 0 {
					t.Errorf("%s: empty run", m.Name)
				}
			}
		})
	}
}

func TestDeltaAndGeomean(t *testing.T) {
	a := &sim.Counters{Cycles: 100}
	b := &sim.Counters{Cycles: 95}
	if d := DeltaPct(a, b); d < 4.99 || d > 5.01 {
		t.Errorf("DeltaPct(100, 95) = %f, want 5", d)
	}
	if d := Geomean([]float64{10, -10}); d > 0.01 || d < -1.5 {
		t.Errorf("Geomean(10,-10) = %f", d)
	}
	if d := Geomean(nil); d != 0 {
		t.Errorf("Geomean(nil) = %f", d)
	}
}
