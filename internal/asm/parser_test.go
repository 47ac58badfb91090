package asm

import (
	"fmt"
	"strings"
	"testing"

	"mao/internal/ir"
	"mao/internal/x86"
)

func mustParse(t *testing.T, src string) *ir.Unit {
	t.Helper()
	u, err := ParseString("test.s", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return u
}

func onlyInst(t *testing.T, src string) *x86.Inst {
	t.Helper()
	u := mustParse(t, src)
	for n := u.List.Front(); n != nil; n = n.Next() {
		if n.Kind == ir.NodeInst {
			return n.Inst
		}
	}
	t.Fatalf("no instruction in %q", src)
	return nil
}

// The paper's Figure 1 snippet (181.mcf hot loop).
const fig1 = `
.L3:	movsbl 1(%rdi,%r8,4),%edx
	movsbl (%rdi,%r8,4),%eax
	movl %edx, (%rsi,%r8,4)
	addq $1, %r8
	nop
.L5:	movsbl 1(%rdi,%r8,4),%edx
	movsbl (%rdi,%r8,4),%eax
	movl %edx, (%rsi,%r8,4)
	addq $1, %r8
	cmpl %r8d, %r9d
	jg .L3
`

func TestParseFig1(t *testing.T) {
	u := mustParse(t, fig1)
	var insts []*x86.Inst
	var labels []string
	for n := u.List.Front(); n != nil; n = n.Next() {
		switch n.Kind {
		case ir.NodeInst:
			insts = append(insts, n.Inst)
		case ir.NodeLabel:
			labels = append(labels, n.Label)
		}
	}
	if len(insts) != 11 {
		t.Fatalf("got %d instructions, want 11", len(insts))
	}
	if len(labels) != 2 || labels[0] != ".L3" || labels[1] != ".L5" {
		t.Fatalf("labels = %v", labels)
	}
	first := insts[0]
	if first.Op != x86.OpMOVSX || first.Width != x86.W32 || first.SrcWidth != x86.W8 {
		t.Errorf("movsbl parsed as %+v", first.Mnem())
	}
	mem := first.Args[0].Mem
	if mem.Disp != 1 || mem.Base != x86.RDI || mem.Index != x86.R8 || mem.Scale != 4 {
		t.Errorf("memory operand = %+v", mem)
	}
	last := insts[10]
	if last.Op != x86.OpJCC || last.Cond != x86.CondG {
		t.Errorf("jg parsed as %+v", last.Mnem())
	}
	if tgt, ok := last.BranchTarget(); !ok || tgt != ".L3" {
		t.Errorf("branch target = %q, %v", tgt, ok)
	}
}

// The paper's Section II relaxation example.
const relaxExample = `
	push %rbp
	mov %rsp,%rbp
	movl $0x5,-0x4(%rbp)
	jmp .Lcheck
.Lbody:
	addl $0x1,-0x4(%rbp)
	subl $0x1,-0x4(%rbp)
.Lcheck:
	cmpl $0x0,-0x4(%rbp)
	jne .Lbody
`

func TestParseRelaxExample(t *testing.T) {
	u := mustParse(t, relaxExample)
	n := 0
	for m := u.List.Front(); m != nil; m = m.Next() {
		if m.Kind == ir.NodeInst {
			n++
		}
	}
	if n != 8 {
		t.Fatalf("got %d instructions, want 8", n)
	}
}

func TestOperandForms(t *testing.T) {
	cases := []struct {
		src  string
		want string // canonical printing
	}{
		{"mov %eax, %eax", "movl\t%eax, %eax"},
		{"andl $255,%eax", "andl\t$255, %eax"},
		{"subl $16, %r15d", "subl\t$16, %r15d"},
		{"testl %r15d, %r15d", "testl\t%r15d, %r15d"},
		{"movq 24(%rsp), %rdx", "movq\t24(%rsp), %rdx"},
		{"movq %rdx, %rcx", "movq\t%rdx, %rcx"},
		{"movss %xmm0,(%rdi,%rax,4)", "movss\t%xmm0, (%rdi,%rax,4)"},
		{"add $0x1,%rax", "addq\t$1, %rax"},
		{"cmp $0x8,%rax", "cmpq\t$8, %rax"},
		{"jne .L5", "jne\t.L5"},
		{"shrl $12, %edi", "shrl\t$12, %edi"},
		{"leal (%r8, %rdi), %ebx", "leal\t(%r8,%rdi,1), %ebx"},
		{"leal 2(%rdx), %r8d", "leal\t2(%rdx), %r8d"},
		{"xorb $01, %dl", "xorb\t$1, %dl"},
		{"sarl %ecx", "sarl\t%ecx"},
		{"call printf", "call\tprintf"},
		{"jmp *%rax", "jmp\t*%rax"},
		{"jmp *.Ltab(,%rdi,8)", "jmp\t*.Ltab(,%rdi,8)"},
		{"call *16(%rbx)", "call\t*16(%rbx)"},
		{"movl counter(%rip), %eax", "movl\tcounter(%rip), %eax"},
		{"movl counter+4(%rip), %eax", "movl\tcounter+4(%rip), %eax"},
		{"prefetchnta (%r9)", "prefetchnta\t(%r9)"},
		{"lock addl $1, (%rdi)", "lock addl\t$1, (%rdi)"},
		{"movabsq $81985529216486895, %r10", "movabsq\t$81985529216486895, %r10"},
		{"cmovle %eax, %ebx", "cmovle\t%eax, %ebx"},
		{"sete %al", "sete\t%al"},
		{"movzwl %ax, %ecx", "movzwl\t%ax, %ecx"},
		{"movslq %edi, %rax", "movslq\t%edi, %rax"},
		{"cvtsi2sdq %rax, %xmm0", "cvtsi2sdq\t%rax, %xmm0"},
		{"movq %xmm0, %rax", "movq\t%xmm0, %rax"},
		{"ret", "ret"},
		{"mov var, %eax", "movl\tvar, %eax"},
	}
	for _, c := range cases {
		in := onlyInst(t, c.src)
		if got := in.String(); got != c.want {
			t.Errorf("%q => %q, want %q", c.src, got, c.want)
		}
	}
}

// TestParseErrors runs every error case (differential_test.go) on its
// own and requires a *ParseError naming the case's line, so each case
// keeps reaching the error path the differential compares.
func TestParseErrors(t *testing.T) {
	for _, c := range errorCases {
		_, err := ParseString("bad.s", "\t.text\nf:\n"+c+"\n")
		if _, ok := err.(*ParseError); !ok {
			t.Errorf("%q: error %v, want a *ParseError", c, err)
			continue
		}
		if want := fmt.Sprintf("bad.s:%d:", 3+strings.Count(c, "\n")); !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%q: error %v lacks position %s", c, err, want)
		}
	}
	if _, err := ParseString("bad.s", duplicateLabel); err == nil {
		t.Error("duplicate label accepted")
	}
}

func TestDirectives(t *testing.T) {
	src := `	.file "x.c"
	.text
	.globl main
	.type main, @function
main:
	.cfi_startproc
	ret
	.cfi_endproc
	.size main, .-main
	.section .rodata.str1.1,"aMS",@progbits,1
.LC0:
	.string "hello, world"
	.p2align 4,,15
`
	u := mustParse(t, src)
	f := u.Function("main")
	if f == nil {
		t.Fatal("function main not recognized")
	}
	if got := len(f.Instructions()); got != 1 {
		t.Errorf("main has %d instructions, want 1", got)
	}
	// The .string directive with a comma inside quotes must stay one arg.
	var strDir *ir.Node
	for n := u.List.Front(); n != nil; n = n.Next() {
		if n.Kind == ir.NodeDirective && n.Dir.Name == ".string" {
			strDir = n
		}
	}
	if strDir == nil || len(strDir.Dir.Args) != 1 || strDir.Dir.Args[0] != `"hello, world"` {
		t.Errorf(".string parsed wrong: %+v", strDir)
	}
}

func TestCommentsAndSeparators(t *testing.T) {
	src := "nop # this instruction speeds up\nnop; nop ; nop\n.string \"a # b\"\n"
	u := mustParse(t, src)
	insts := 0
	for n := u.List.Front(); n != nil; n = n.Next() {
		if n.Kind == ir.NodeInst {
			insts++
		}
	}
	if insts != 4 {
		t.Errorf("got %d instructions, want 4", insts)
	}
}

func TestLabelOnSameLineAsInst(t *testing.T) {
	u := mustParse(t, ".L5: movsbl 1(%rdi,%r8,4),%edx")
	front := u.List.Front()
	if front.Kind != ir.NodeLabel || front.Label != ".L5" {
		t.Fatalf("front = %v", front)
	}
	if next := front.Next(); next == nil || next.Kind != ir.NodeInst {
		t.Fatalf("instruction after label missing")
	}
}

// Round-trip property: parse -> print -> parse -> print must be a
// fixed point (our analog of the paper's disassemble-and-compare
// verification in Section III-A).
func TestRoundTripFixedPoint(t *testing.T) {
	for _, src := range []string{fig1, relaxExample} {
		u1 := mustParse(t, src)
		s1 := u1.String()
		u2 := mustParse(t, s1)
		s2 := u2.String()
		if s1 != s2 {
			t.Errorf("round trip not stable:\n--- first ---\n%s\n--- second ---\n%s", s1, s2)
		}
	}
}

func TestNegativeAndHexImmediates(t *testing.T) {
	in := onlyInst(t, "addq $-8, %rsp")
	if in.Args[0].Imm != -8 {
		t.Errorf("imm = %d", in.Args[0].Imm)
	}
	in = onlyInst(t, "movq $0xffffffffffffffff, %rax")
	if in.Args[0].Imm != -1 {
		t.Errorf("wraparound imm = %d", in.Args[0].Imm)
	}
}

func TestSymbolicImmediate(t *testing.T) {
	in := onlyInst(t, "movl $sym+4, %eax")
	a := in.Args[0]
	if a.Kind != x86.KindImm || a.Sym != "sym" || a.Imm != 4 {
		t.Errorf("symbolic immediate parsed as %+v", a)
	}
}
