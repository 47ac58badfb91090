package cfg

import (
	"strings"
	"testing"

	"mao/internal/asm"
	"mao/internal/ir"
	"mao/internal/x86"
)

func parseFn(t *testing.T, body string) *ir.Function {
	t.Helper()
	src := "\t.text\n\t.type f,@function\nf:\n" + body + "\t.size f,.-f\n"
	u, err := asm.ParseString("t.s", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	f := u.Function("f")
	if f == nil {
		t.Fatal("function f not found")
	}
	return f
}

func TestStraightLine(t *testing.T) {
	f := parseFn(t, "\tmovl $1, %eax\n\taddl $2, %eax\n\tret\n")
	g := Build(f)
	if len(g.Blocks) != 1 {
		t.Fatalf("blocks = %d, want 1", len(g.Blocks))
	}
	b := g.Blocks[0]
	if len(b.Insts) != 3 || len(b.Succs) != 0 {
		t.Errorf("entry block: %d insts, %d succs", len(b.Insts), len(b.Succs))
	}
	if f.Unresolved {
		t.Error("straight-line function flagged unresolved")
	}
}

func TestDiamond(t *testing.T) {
	f := parseFn(t, `
	testl %edi, %edi
	je .Lelse
	movl $1, %eax
	jmp .Lend
.Lelse:
	movl $2, %eax
.Lend:
	ret
`)
	g := Build(f)
	// entry, then-block (fallthrough of je), else, end.
	if len(g.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4", len(g.Blocks))
	}
	entry := g.Blocks[0]
	if len(entry.Succs) != 2 {
		t.Fatalf("entry succs = %d, want 2", len(entry.Succs))
	}
	end := g.BlockByLabel(".Lend")
	if end == nil || len(end.Preds) != 2 {
		t.Fatalf("end block preds wrong: %+v", end)
	}
	then := g.Blocks[1]
	if len(then.Succs) != 1 || then.Succs[0] != end {
		t.Error("then block must jump to end")
	}
}

func TestLoop(t *testing.T) {
	f := parseFn(t, `
	xorl %eax, %eax
.Ltop:
	addl $1, %eax
	cmpl $10, %eax
	jl .Ltop
	ret
`)
	g := Build(f)
	top := g.BlockByLabel(".Ltop")
	if top == nil {
		t.Fatal("loop head missing")
	}
	// The loop head must be its own successor's target: back edge.
	var hasBackEdge bool
	for _, p := range top.Preds {
		for _, s := range p.Succs {
			if s == top && p.Index >= top.Index {
				hasBackEdge = true
			}
		}
	}
	if !hasBackEdge {
		t.Error("no back edge to loop head")
	}
	if term := top.Terminator(); term == nil || term.Op != x86.OpJCC {
		t.Error("loop block terminator wrong")
	}
}

func TestCallDoesNotEndBlock(t *testing.T) {
	f := parseFn(t, "\tcall g\n\tmovl $1, %eax\n\tret\n")
	g := Build(f)
	if len(g.Blocks) != 1 {
		t.Fatalf("blocks = %d, want 1 (call must not end a block)", len(g.Blocks))
	}
}

const jumpTablePattern1 = `
	cmpl $3, %edi
	ja .Ldefault
	movl %edi, %edi
	jmp *.Ltab(,%rdi,8)
.Lcase0:
	movl $10, %eax
	ret
.Lcase1:
	movl $11, %eax
	ret
.Ldefault:
	xorl %eax, %eax
	ret
`

func parseFnWithTable(t *testing.T, body string) *ir.Function {
	t.Helper()
	src := "\t.text\n\t.type f,@function\nf:\n" + body + "\t.size f,.-f\n" +
		"\t.section .rodata\n.Ltab:\n\t.quad .Lcase0\n\t.quad .Lcase1\n\t.quad .Lcase0\n\t.quad .Ldefault\n"
	u, err := asm.ParseString("t.s", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return u.Function("f")
}

func TestJumpTableDirect(t *testing.T) {
	f := parseFnWithTable(t, jumpTablePattern1)
	g := Build(f)
	if f.Unresolved {
		t.Fatalf("direct jump-table pattern should resolve; unresolved=%v", g.Unresolved)
	}
	// The dispatch block must have the three distinct case targets.
	var dispatch *BasicBlock
	for _, b := range g.Blocks {
		if term := b.Terminator(); term != nil && term.IsIndirectBranch() {
			dispatch = b
		}
	}
	if dispatch == nil {
		t.Fatal("no dispatch block found")
	}
	if len(dispatch.Succs) != 3 {
		t.Errorf("dispatch succs = %d, want 3 (deduplicated)", len(dispatch.Succs))
	}
}

const jumpTablePattern2 = `
	cmpl $3, %edi
	ja .Ldefault
	movl %edi, %edi
	movq .Ltab(,%rdi,8), %rax
	jmp *%rax
.Lcase0:
	movl $10, %eax
	ret
.Lcase1:
	movl $11, %eax
	ret
.Ldefault:
	xorl %eax, %eax
	ret
`

func TestJumpTableViaRegister(t *testing.T) {
	f := parseFnWithTable(t, jumpTablePattern2)

	// Without the reaching-definitions pattern the branch must be
	// flagged unresolved (the paper's "246 out of 320" situation).
	g := BuildWith(f, Options{ResolveWithDataflow: false})
	if !f.Unresolved || len(g.Unresolved) != 1 {
		t.Fatal("register-indirect jump should be unresolved without dataflow pattern")
	}

	// With it, resolution succeeds (the "4 out of 320 remain" fix).
	g = BuildWith(f, Options{ResolveWithDataflow: true})
	if f.Unresolved {
		t.Fatalf("register-indirect jump should resolve with dataflow pattern; %v", g.Unresolved)
	}
	var dispatch *BasicBlock
	for _, b := range g.Blocks {
		if term := b.Terminator(); term != nil && term.IsIndirectBranch() {
			dispatch = b
		}
	}
	if len(dispatch.Succs) != 3 {
		t.Errorf("dispatch succs = %d, want 3", len(dispatch.Succs))
	}
}

func TestUnresolvableIndirect(t *testing.T) {
	f := parseFn(t, "\tjmp *%rax\n")
	g := Build(f)
	if !f.Unresolved || len(g.Unresolved) != 1 {
		t.Error("computed jump with no table must stay unresolved")
	}
}

func TestIndirectThroughCallBarrier(t *testing.T) {
	// A call between the table load and the jump kills the pattern.
	f := parseFnWithTable(t, `
	movq .Ltab(,%rdi,8), %rax
	call clobber
	jmp *%rax
.Lcase0:
	ret
.Lcase1:
	ret
.Ldefault:
	ret
`)
	Build(f)
	if !f.Unresolved {
		t.Error("pattern must not match across a call")
	}
}

// TestJumpTableRegisterOverwritten: an instruction between the table
// load and the jump that writes the target register, implicitly or
// through an operand other than the last, leaves the jump unresolved,
// as an explicit overwrite does.
func TestJumpTableRegisterOverwritten(t *testing.T) {
	for _, clobber := range []string{"xchgq %rax, %rbx", "cltq", "mulq %rcx", "movq %rbx, %rax"} {
		f := parseFnWithTable(t, `
	movq .Ltab(,%rdi,8), %rax
	`+clobber+`
	jmp *%rax
.Lcase0:
	ret
.Lcase1:
	ret
.Ldefault:
	ret
`)
		g := Build(f)
		if !f.Unresolved || len(g.Unresolved) != 1 {
			t.Errorf("%s: jump resolved through an overwritten %%rax", clobber)
		}
	}
}

func TestBlockOf(t *testing.T) {
	f := parseFn(t, "\tnop\n.Lx:\n\tnop\n\tret\n")
	g := Build(f)
	insts := f.Instructions()
	if g.BlockOf(insts[0]) == g.BlockOf(insts[1]) {
		t.Error("label must split blocks")
	}
	if g.BlockOf(insts[1]) != g.BlockOf(insts[2]) {
		t.Error("straight-line insts must share a block")
	}
}

func TestEmptyFunction(t *testing.T) {
	f := parseFn(t, "")
	g := Build(f)
	if len(g.Blocks) == 0 {
		t.Error("even an empty function needs an entry block")
	}
}

func TestTailJumpOutOfFunction(t *testing.T) {
	f := parseFn(t, "\ttestl %edi, %edi\n\tje .Lout\n\tjmp other_function\n.Lout:\n\tret\n")
	g := Build(f)
	if f.Unresolved {
		t.Error("direct tail jump must not flag the function")
	}
	// The tail-jump block simply has no intra-function successor.
	for _, b := range g.Blocks {
		if term := b.Terminator(); term != nil && term.Op == x86.OpJMP {
			if len(b.Succs) != 0 {
				t.Error("tail jump block must have no intra-function successors")
			}
		}
	}
}

func TestDOT(t *testing.T) {
	f := parseFn(t, `
	testl %edi, %edi
	je .Lelse
	movl $1, %eax
	jmp .Lend
.Lelse:
	jmp *%rax
.Lend:
	ret
`)
	g := Build(f)
	dot := g.DOT()
	for _, want := range []string{"digraph f", "b0 ->", "je .Lelse",
		"unresolved [shape=diamond"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
	if strings.Count(dot, "\"")%2 != 0 {
		t.Error("unbalanced quotes in DOT output")
	}
}
