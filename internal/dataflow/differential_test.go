package dataflow_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mao/internal/asm"
	"mao/internal/cfg"
	"mao/internal/corpus"
	"mao/internal/dataflow"
	"mao/internal/ir"
	"mao/internal/pass"
	_ "mao/internal/passes"
	"mao/internal/x86"
)

// differentialSpecs are the pipelines each input runs through before
// its functions are analyzed: none, then pipelines that insert
// instructions (NOPIN, LSD, BRALIGN) and so leave nodes with indices
// far above their neighbours', then the peepholes and the layout
// pipeline, which delete, rewrite and reorder.
var differentialSpecs = []string{
	"",
	"NOPIN",
	"NOPIN:REDZEXT:REDTEST:REDMOV:ADDADD",
	"REDZEXT:REDTEST:REDMOV:ADDADD:SCHED:LOOP16",
	"LSD:BRALIGN",
}

// differentialInputs are every corpus fixture plus one unit per corpus
// template.
func differentialInputs(t *testing.T) map[string]string {
	t.Helper()
	paths, err := filepath.Glob("../corpus/testdata/*.s")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus fixtures: %v", err)
	}
	in := make(map[string]string)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		in[filepath.Base(p)] = string(b)
	}
	for _, w := range append(corpus.Spec2000Int(0.1), corpus.Spec2006Subset(0.1)...) {
		in["corpus_"+w.Name] = corpus.Generate(w)
	}
	return in
}

// TestAnalysesMatchReference compares the slab CFG, liveness and
// reaching definitions with the map-based reference on every function
// of every input after every differential pipeline: CFG shape and
// BlockOf, block live-ins under Live and LiveBlocks, and per
// instruction LiveOut, FlagsLiveOut, InstDefUse, and DefsReaching for
// all 32 register families.
func TestAnalysesMatchReference(t *testing.T) {
	inputs := differentialInputs(t)
	families := make([]x86.Reg, 0, 32)
	for r := x86.RAX; r <= x86.R15; r++ {
		families = append(families, r)
	}
	for i := 0; i < 16; i++ {
		families = append(families, x86.XMM0+x86.Reg(i))
	}
	for name, src := range inputs {
		for _, spec := range differentialSpecs {
			t.Run(fmt.Sprintf("%s/%s", name, spec), func(t *testing.T) {
				u, err := asm.ParseString(name, src)
				if err != nil {
					t.Fatal(err)
				}
				if spec != "" {
					mgr, err := pass.NewManager(spec)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := mgr.Run(u); err != nil {
						t.Fatal(err)
					}
				}
				for _, f := range u.Functions() {
					compareFunction(t, f, families)
				}
			})
		}
	}
}

func compareFunction(t *testing.T, f *ir.Function, families []x86.Reg) {
	t.Helper()
	rg := refBuild(f)
	g := cfg.Build(f)
	where := f.Name

	if len(g.Blocks) != len(rg.blocks) {
		t.Fatalf("%s: %d blocks, reference %d", where, len(g.Blocks), len(rg.blocks))
	}
	for i, b := range g.Blocks {
		rb := rg.blocks[i]
		if b.Index != rb.index || b.Label != rb.label || !sameNodes(b.Insts, rb.insts) {
			t.Fatalf("%s: block %d differs: %v %q %d insts, reference %q %d insts",
				where, i, b, b.Label, len(b.Insts), rb.label, len(rb.insts))
		}
		if len(b.Insts) != cap(b.Insts) {
			t.Fatalf("%s: block %d Insts has spare capacity", where, i)
		}
		if !sameBlocks(b.Succs, rb.succs) || !sameBlocks(b.Preds, rb.preds) {
			t.Fatalf("%s: block %d edges differ", where, i)
		}
	}
	if !sameNodes(g.Unresolved, rg.unresolved) {
		t.Fatalf("%s: unresolved %v, reference %v", where, g.Unresolved, rg.unresolved)
	}
	for n := f.EntryLabel(); n != nil; n = n.Next() {
		got, want := g.BlockOf(n), rg.blockOf[n]
		if (got == nil) != (want == nil) || got != nil && got.Index != want.index {
			t.Fatalf("%s: BlockOf(%v) = %v, reference %v", where, n, got, want)
		}
		if n == f.End() {
			break
		}
	}

	rl := refLive(rg)
	live, blocks := dataflow.Live(g), dataflow.LiveBlocks(g)
	for i, b := range g.Blocks {
		for _, l := range []*dataflow.Liveness{live, blocks} {
			if l.BlockLiveIn(b) != rl.blockLiveIn[i] || l.BlockFlagsIn(b) != rl.blockFlagsIn[i] {
				t.Fatalf("%s: block %d live-in differs", where, i)
			}
		}
	}

	rr := refReach(rg)
	reach := dataflow.Reach(g)
	for _, b := range g.Blocks {
		for _, n := range b.Insts {
			if got, want := dataflow.InstDefUse(n.Inst), refInstDefUse(n.Inst); got != want {
				t.Fatalf("%s: InstDefUse(%v) = %+v, reference %+v", where, n.Inst, got, want)
			}
			if live.LiveOut(n) != rl.liveOut[n] || live.FlagsLiveOut(n) != rl.flagsOut[n] {
				t.Fatalf("%s: live-out of %v = %#x/%v, reference %#x/%v", where, n.Inst,
					live.LiveOut(n), live.FlagsLiveOut(n), rl.liveOut[n], rl.flagsOut[n])
			}
			for _, r := range families {
				if got, want := reach.DefsReaching(n, r), rr.defsReaching(n, r); !sameNodes(got, want) {
					t.Fatalf("%s: DefsReaching(%v, %v) = %v, reference %v", where, n.Inst, r, got, want)
				}
			}
		}
	}
}

func sameNodes(a, b []*ir.Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameBlocks(a []*cfg.BasicBlock, b []*refBlock) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].index {
			return false
		}
	}
	return true
}
