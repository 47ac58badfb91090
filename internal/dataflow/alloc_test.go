package dataflow

import (
	"strings"
	"testing"

	"mao/internal/asm"
	"mao/internal/cfg"
)

func TestInstDefUseNoAllocs(t *testing.T) {
	_, g := buildGraph(t, `
	movq .Ltab(,%rdi,8), %rax
	addl %ebx, (%rsi,%r8,4)
	imulq %rbx
	divl %ecx
	cmovge %eax, %ebx
	shll %cl, %eax
	xchgq %rax, %rbx
	push %rbp
	call memset
	ret
`)
	for _, n := range g.Blocks[0].Insts {
		if a := testing.AllocsPerRun(10, func() { InstDefUse(n.Inst) }); a != 0 {
			t.Errorf("InstDefUse(%v): %v allocations, want 0", n.Inst, a)
		}
	}
}

// straightLine returns a straight-line function body of n instructions
// cycling through a fixed mix.
func straightLine(n int) string {
	mix := []string{
		"movl %edi, %eax", "addl $1, %eax", "movq (%rsi), %rbx",
		"imulq %rbx", "testl %eax, %eax", "leaq 8(%rax,%rbx,2), %rcx",
		"xorl %edx, %edx", "movl %eax, (%rdx)",
	}
	var b strings.Builder
	for i := 0; i < n-1; i++ {
		b.WriteString("\t" + mix[i%len(mix)] + "\n")
	}
	b.WriteString("\tret\n")
	return b.String()
}

// TestAnalysisAllocsIndependentOfSize pins the slab layout: building a
// CFG, and running liveness and reaching definitions over it, costs
// the same number of allocations for 10 instructions as for 1,000.
func TestAnalysisAllocsIndependentOfSize(t *testing.T) {
	allocs := func(n int) (build, live, reach float64) {
		src := "\t.text\n\t.type f,@function\nf:\n" + straightLine(n) + "\t.size f,.-f\n"
		u, err := asm.ParseString("t.s", src)
		if err != nil {
			t.Fatal(err)
		}
		f := u.Function("f")
		g := cfg.Build(f)
		if got := g.NumInsts(); got != n {
			t.Fatalf("%d instructions placed, want %d", got, n)
		}
		build = testing.AllocsPerRun(5, func() { cfg.Build(f) })
		live = testing.AllocsPerRun(5, func() { Live(g) })
		reach = testing.AllocsPerRun(5, func() { Reach(g) })
		return
	}
	b10, l10, r10 := allocs(10)
	b1k, l1k, r1k := allocs(1000)
	if b10 != b1k || l10 != l1k || r10 != r1k {
		t.Errorf("allocations (build, live, reach): 10 insts %v %v %v, 1000 insts %v %v %v",
			b10, l10, r10, b1k, l1k, r1k)
	}
	t.Logf("allocations (build, live, reach): %v %v %v", b10, l10, r10)
}
