package main

import (
	"go/token"
	"strings"
	"testing"
)

func lint(t *testing.T, src string) []Violation {
	t.Helper()
	vs, err := lintSource(token.NewFileSet(), "probe.go", []byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return vs
}

func TestFlagsRawListMutations(t *testing.T) {
	src := `package p

func run(ctx *Ctx) {
	ctx.Unit.List.Remove(n)
	ctx.Unit.List.Append(n)
	ctx.Unit.List.InsertBefore(a, b)
	ctx.Unit.List.InsertAfter(a, b)
	ctx.Unit.List.BumpVersion()
	u.List.Remove(n)
}
`
	vs := lint(t, src)
	if len(vs) != 6 {
		t.Fatalf("got %d violations, want 6: %+v", len(vs), vs)
	}
	if !strings.Contains(vs[0].Call, "ctx.Unit.List.Remove") {
		t.Errorf("first violation call = %q, want ctx.Unit.List.Remove", vs[0].Call)
	}
	if !strings.Contains(vs[0].Fix, "ctx.Delete") {
		t.Errorf("Remove fix = %q, want mention of ctx.Delete", vs[0].Fix)
	}
}

func TestFlagsUnitAppendWrapper(t *testing.T) {
	vs := lint(t, `package p

func run(ctx *Ctx) {
	ctx.Unit.Append(n)
}
`)
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1: %+v", len(vs), vs)
	}
	if !strings.Contains(vs[0].Fix, "ctx.Append") {
		t.Errorf("fix = %q, want mention of ctx.Append", vs[0].Fix)
	}
}

func TestAllowsCtxHelpersAndReads(t *testing.T) {
	vs := lint(t, `package p

func run(ctx *Ctx) {
	ctx.Append(n)
	ctx.InsertBefore(a, b)
	ctx.Delete(n)
	ctx.Rewrite(n)
	ctx.MoveBefore(a, b)
	_ = ctx.Unit.List.Front()
	_ = ctx.Unit.List.Version()
	for n := u.List.Front(); n != nil; n = n.Next() {
		_ = n
	}
}
`)
	if len(vs) != 0 {
		t.Fatalf("got %d violations, want 0: %+v", len(vs), vs)
	}
}

func TestAllowsUnrelatedListTypes(t *testing.T) {
	// A field merely named List on an unrelated type still matches —
	// the linter is syntactic by design — but plain method calls and
	// non-List receivers must not.
	vs := lint(t, `package p

func run() {
	q.Append(x)
	items.Remove(3)
	s.Buf.Append(x)
}
`)
	if len(vs) != 0 {
		t.Fatalf("got %d violations, want 0: %+v", len(vs), vs)
	}
}

func TestFlagsAnalysisBuilds(t *testing.T) {
	vs := lint(t, `package p

import (
	"mao/internal/cfg"
	"mao/internal/dataflow"
)

func run(f *Function) {
	g := cfg.Build(f)
	g = cfg.BuildWith(f, cfg.Options{})
	_ = dataflow.Live(g)
	_ = dataflow.LiveBlocks(g)
	_ = dataflow.Reach(g)
}
`)
	want := []string{"cfg.Build", "cfg.BuildWith", "dataflow.Live", "dataflow.LiveBlocks", "dataflow.Reach"}
	if len(vs) != len(want) {
		t.Fatalf("got %d violations, want %d: %+v", len(vs), len(want), vs)
	}
	for i, v := range vs {
		if v.Call != want[i] {
			t.Errorf("violation %d call = %q, want %q", i, v.Call, want[i])
		}
		if !strings.Contains(v.Fix, "ask the pass.Ctx (ctx.CFG / ctx.Live / ctx.Reach)") {
			t.Errorf("fix = %q, want it to point at the Ctx", v.Fix)
		}
	}
}

func TestFlagsAliasedAnalysisImport(t *testing.T) {
	vs := lint(t, `package p

import (
	flow "mao/internal/dataflow"
	graph "mao/internal/cfg"
)

func run(f *Function) {
	_ = flow.Live(graph.Build(f))
}
`)
	if len(vs) != 2 || vs[0].Call != "flow.Live" || vs[1].Call != "graph.Build" {
		t.Fatalf("got %+v, want flow.Live and graph.Build", vs)
	}
}

func TestAllowsCtxAnalysesAndOtherCalls(t *testing.T) {
	vs := lint(t, `package p

import (
	"mao/internal/dataflow"
	"mao/internal/loops"
	cfg "example.com/other/cfg"
)

func run(ctx *Ctx, f *Function, in *Inst) {
	g := ctx.CFG(f)
	_ = ctx.Live(f)
	_ = ctx.Reach(f)
	_ = dataflow.InstDefUse(in)
	_ = loops.Find(g)
	_ = g.BlockOf(nil)
	_ = cfg.Build(f) // not the analysis package
	dataflow := struct{ Live func() int }{}
	_ = dataflow.Live()
}
`)
	if len(vs) != 0 {
		t.Fatalf("got %d violations, want 0: %+v", len(vs), vs)
	}
}
