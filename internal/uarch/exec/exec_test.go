package exec

import (
	"testing"

	"mao/internal/asm"
	"mao/internal/ir"
	"mao/internal/relax"
	"mao/internal/x86"
)

// run executes a function body with the given initial registers and
// returns the result.
func run(t *testing.T, body string, init map[x86.Reg]uint64) *Result {
	t.Helper()
	res, err := tryRun(body, init)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func tryRun(body string, init map[x86.Reg]uint64) (*Result, error) {
	src := "\t.text\n\t.type f,@function\nf:\n" + body + "\t.size f,.-f\n"
	u, err := asm.ParseString("t.s", src)
	if err != nil {
		return nil, err
	}
	layout, err := relax.Relax(u, nil)
	if err != nil {
		return nil, err
	}
	return Run(&Config{
		Unit: u, Layout: layout, Entry: "f",
		InitRegs: init, CollectTrace: true,
	})
}

func rax(res *Result) uint64 { return res.State.ReadReg(x86.RAX) }

func TestBasicArithmetic(t *testing.T) {
	cases := []struct {
		body string
		init map[x86.Reg]uint64
		want uint64
	}{
		{"\tmovl $5, %eax\n\taddl $3, %eax\n\tret\n", nil, 8},
		{"\tmovq $-1, %rax\n\tret\n", nil, ^uint64(0)},
		{"\tmovl $-1, %eax\n\tret\n", nil, 0xFFFFFFFF}, // 32-bit zero-extends
		{"\tmovq %rdi, %rax\n\tsubq %rsi, %rax\n\tret\n",
			map[x86.Reg]uint64{x86.RDI: 100, x86.RSI: 42}, 58},
		{"\tmovl $6, %eax\n\timull $7, %eax, %eax\n\tret\n", nil, 42},
		{"\tmovq %rdi, %rax\n\tnegq %rax\n\tret\n",
			map[x86.Reg]uint64{x86.RDI: 5}, uint64(1<<64 - 5)},
		{"\tmovl $0xff, %eax\n\tnotl %eax\n\tret\n", nil, 0xFFFFFF00},
		{"\tmovl $12, %eax\n\tandl $10, %eax\n\tret\n", nil, 8},
		{"\tmovl $12, %eax\n\torl $3, %eax\n\tret\n", nil, 15},
		{"\tmovl $0b1010, %eax\n\txorl $0b0110, %eax\n\tret\n", nil, 0b1100},
		{"\tmovl $1, %eax\n\tshll $4, %eax\n\tret\n", nil, 16},
		{"\tmovl $-16, %eax\n\tsarl $2, %eax\n\tret\n", nil, 0xFFFFFFFC},
		{"\tmovl $16, %eax\n\tshrl $2, %eax\n\tret\n", nil, 4},
		{"\tmovb $200, %al\n\taddb $100, %al\n\tret\n", nil, 44}, // 8-bit wrap
		{"\tmovl $7, %eax\n\tincl %eax\n\tdecl %eax\n\tdecl %eax\n\tret\n", nil, 6},
		{"\tleaq 5(%rdi,%rsi,4), %rax\n\tret\n",
			map[x86.Reg]uint64{x86.RDI: 100, x86.RSI: 3}, 117},
		{"\tmovl $10, %eax\n\tcltq\n\tret\n", nil, 10},
		{"\tmovl $-10, %eax\n\tcltq\n\tret\n", nil, uint64(1<<64 - 10)},
		{"\txchgq %rdi, %rax\n\tret\n", map[x86.Reg]uint64{x86.RDI: 9}, 9},
	}
	for _, c := range cases {
		res := run(t, c.body, c.init)
		if got := rax(res); got != c.want {
			t.Errorf("body %q => rax=%#x, want %#x", c.body, got, c.want)
		}
	}
}

func TestMovWidthSemantics(t *testing.T) {
	// Writing a 32-bit register zeroes the upper half; 16/8-bit writes merge.
	res := run(t, `
	movq $-1, %rax
	movl $5, %eax
	ret
`, nil)
	if got := rax(res); got != 5 {
		t.Errorf("32-bit write must zero-extend; rax=%#x", got)
	}
	res = run(t, `
	movq $-1, %rax
	movw $5, %ax
	ret
`, nil)
	if got := rax(res); got != 0xFFFFFFFFFFFF0005 {
		t.Errorf("16-bit write must merge; rax=%#x", got)
	}
	res = run(t, `
	movq $0, %rax
	movb $7, %ah
	ret
`, nil)
	if got := rax(res); got != 0x700 {
		t.Errorf("high-byte write; rax=%#x", got)
	}
}

func TestMovZXSX(t *testing.T) {
	res := run(t, "\tmovq $0xff80, %rdi\n\tmovzbl %dil, %eax\n\tret\n", nil)
	if rax(res) != 0x80 {
		t.Errorf("movzbl => %#x", rax(res))
	}
	res = run(t, "\tmovq $0xff80, %rdi\n\tmovsbl %dil, %eax\n\tret\n", nil)
	if rax(res) != 0xFFFFFF80 {
		t.Errorf("movsbl => %#x", rax(res))
	}
	res = run(t, "\tmovl $-2, %edi\n\tmovslq %edi, %rax\n\tret\n", nil)
	if rax(res) != ^uint64(1) {
		t.Errorf("movslq => %#x", rax(res))
	}
}

func TestDivision(t *testing.T) {
	res := run(t, `
	movl $100, %eax
	cltd
	movl $7, %ecx
	idivl %ecx
	ret
`, nil)
	if rax(res) != 14 || res.State.ReadReg(x86.EDX) != 2 {
		t.Errorf("idiv: q=%d r=%d", rax(res), res.State.ReadReg(x86.EDX))
	}
	res = run(t, `
	movl $-100, %eax
	cltd
	movl $7, %ecx
	idivl %ecx
	ret
`, nil)
	if int32(rax(res)) != -14 || int32(res.State.ReadReg(x86.EDX)) != -2 {
		t.Errorf("signed idiv: q=%d r=%d", int32(rax(res)), int32(res.State.ReadReg(x86.EDX)))
	}
	res = run(t, `
	movq $1000000000000, %rax
	cqto
	movq $1000000, %rcx
	idivq %rcx
	ret
`, nil)
	if rax(res) != 1000000 {
		t.Errorf("64-bit idiv: %d", rax(res))
	}
	if _, err := tryRun("\txorl %ecx, %ecx\n\tmovl $1, %eax\n\tcltd\n\tidivl %ecx\n\tret\n", nil); err == nil {
		t.Error("division by zero must fault")
	}
}

func TestMulWide(t *testing.T) {
	res := run(t, `
	movl $100000, %eax
	movl $100000, %ecx
	mull %ecx
	ret
`, nil)
	// 10^10 = 0x2540BE400: eax=0x540BE400, edx=2.
	if rax(res) != 0x540BE400 || res.State.ReadReg(x86.EDX) != 2 {
		t.Errorf("mull: eax=%#x edx=%#x", rax(res), res.State.ReadReg(x86.EDX))
	}
}

func TestLoop(t *testing.T) {
	res := run(t, `
	xorl %eax, %eax
	movl $10, %ecx
.Ltop:
	addl %ecx, %eax
	decl %ecx
	jne .Ltop
	ret
`, nil)
	if rax(res) != 55 {
		t.Errorf("sum 1..10 = %d", rax(res))
	}
	// Trace must show 10 iterations: decl+addl+jne = 30 + 2 prologue + ret.
	if res.Executed != 33 {
		t.Errorf("executed %d instructions, want 33", res.Executed)
	}
}

func TestConditions(t *testing.T) {
	// Signed and unsigned comparisons.
	res := run(t, `
	movq $-1, %rdi
	cmpq $1, %rdi
	setl %al
	movzbl %al, %eax
	ret
`, nil)
	if rax(res) != 1 {
		t.Error("-1 < 1 signed must hold")
	}
	res = run(t, `
	movq $-1, %rdi
	cmpq $1, %rdi
	setb %al
	movzbl %al, %eax
	ret
`, nil)
	if rax(res) != 0 {
		t.Error("unsigned -1 < 1 must not hold")
	}
	res = run(t, `
	movl $5, %ecx
	cmpl $5, %ecx
	cmovel %ecx, %eax
	ret
`, map[x86.Reg]uint64{x86.RAX: 99})
	if rax(res) != 5 {
		t.Errorf("cmove: %d", rax(res))
	}
}

func TestMemoryAndStack(t *testing.T) {
	res := run(t, `
	push %rbp
	mov %rsp, %rbp
	movl $0x5, -0x4(%rbp)
	addl $0x1, -0x4(%rbp)
	movl -0x4(%rbp), %eax
	pop %rbp
	ret
`, nil)
	if rax(res) != 6 {
		t.Errorf("stack slot = %d", rax(res))
	}
}

func TestCallRet(t *testing.T) {
	src := `
	.text
	.type f,@function
f:
	movl $1, %eax
	call g
	addl $1, %eax
	ret
	.size f,.-f
	.type g,@function
g:
	addl $40, %eax
	ret
	.size g,.-g
`
	u, err := asm.ParseString("t.s", src)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := relax.Relax(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(&Config{Unit: u, Layout: layout, Entry: "f", CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if rax(res) != 42 {
		t.Errorf("call/ret chain = %d", rax(res))
	}
}

func TestJumpTableDispatch(t *testing.T) {
	src := `
	.text
	.type f,@function
f:
	movl %edi, %edi
	movq .Ltab(,%rdi,8), %rax
	jmp *%rax
.Lcase0:
	movl $100, %eax
	ret
.Lcase1:
	movl $200, %eax
	ret
	.size f,.-f
	.section .rodata
.Ltab:
	.quad .Lcase0
	.quad .Lcase1
`
	u, err := asm.ParseString("t.s", src)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := relax.Relax(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	for val, want := range map[uint64]uint64{0: 100, 1: 200} {
		res, err := Run(&Config{
			Unit: u, Layout: layout, Entry: "f",
			InitRegs: map[x86.Reg]uint64{x86.RDI: val},
		})
		if err != nil {
			t.Fatalf("case %d: %v", val, err)
		}
		if rax(res) != want {
			t.Errorf("case %d => %d, want %d", val, rax(res), want)
		}
	}
}

func TestDataSection(t *testing.T) {
	src := `
	.text
	.type f,@function
f:
	movl counter(%rip), %eax
	addl $1, %eax
	movl %eax, counter(%rip)
	movl counter(%rip), %eax
	ret
	.size f,.-f
	.data
counter:
	.long 41
`
	u, err := asm.ParseString("t.s", src)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := relax.Relax(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(&Config{Unit: u, Layout: layout, Entry: "f"})
	if err != nil {
		t.Fatal(err)
	}
	if rax(res) != 42 {
		t.Errorf("counter = %d", rax(res))
	}
}

// TestDataWidthAliases: .2byte and .4byte are laid out and stored at
// the widths of .short and .long.
func TestDataWidthAliases(t *testing.T) {
	src := `
	.text
	.type f,@function
f:
	movzwl half(%rip), %eax
	movl word(%rip), %ecx
	addq %rcx, %rax
	ret
	.size f,.-f
	.data
half:
	.2byte 0x1234
word:
	.4byte 0x10000
`
	u, err := asm.ParseString("t.s", src)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := relax.Relax(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(&Config{Unit: u, Layout: layout, Entry: "f"})
	if err != nil {
		t.Fatal(err)
	}
	if rax(res) != 0x11234 {
		t.Errorf("half + word = %#x, want 0x11234", rax(res))
	}
}

func TestSSEScalar(t *testing.T) {
	res := run(t, `
	movl $3, %edi
	cvtsi2sdl %edi, %xmm0
	movl $4, %esi
	cvtsi2sdl %esi, %xmm1
	mulsd %xmm0, %xmm0
	mulsd %xmm1, %xmm1
	addsd %xmm1, %xmm0
	sqrtsd %xmm0, %xmm0
	cvttsd2si %xmm0, %eax
	ret
`, nil)
	if rax(res) != 5 {
		t.Errorf("hypot(3,4) = %d", rax(res))
	}
	res = run(t, `
	pxor %xmm3, %xmm3
	cvttsd2si %xmm3, %eax
	ret
`, nil)
	if rax(res) != 0 {
		t.Errorf("pxor zero = %d", rax(res))
	}
}

func TestSSECompareBranch(t *testing.T) {
	res := run(t, `
	movl $2, %edi
	cvtsi2sdl %edi, %xmm0
	movl $3, %esi
	cvtsi2sdl %esi, %xmm1
	ucomisd %xmm0, %xmm1
	ja .Lgt
	movl $0, %eax
	ret
.Lgt:
	movl $1, %eax
	ret
`, nil)
	if rax(res) != 1 {
		t.Error("3 > 2 via ucomisd failed")
	}
}

func TestEventsAndTrace(t *testing.T) {
	res := run(t, `
	movq (%rdi), %rax
	movq %rax, 8(%rdi)
	jne .Lx
.Lx:
	ret
`, map[x86.Reg]uint64{x86.RDI: 0x700000})
	ev := res.Trace
	if !ev[0].HasLoad || ev[0].LoadAddr != 0x700000 {
		t.Errorf("load event wrong: %+v", ev[0])
	}
	if !ev[1].HasStore || ev[1].StoreAddr != 0x700008 {
		t.Errorf("store event wrong: %+v", ev[1])
	}
	if !ev[2].IsCondBranch {
		t.Error("jcc event must be marked conditional")
	}
	if !ev[3].IsBranch || !ev[3].Taken {
		t.Error("ret must trace as a taken branch")
	}
	for _, e := range ev {
		if e.Len == 0 {
			t.Errorf("event with zero length: %+v", e)
		}
	}
}

func TestPrefetchEvent(t *testing.T) {
	res := run(t, `
	prefetchnta (%rdi)
	movq (%rdi), %rax
	ret
`, map[x86.Reg]uint64{x86.RDI: 0x700100})
	if !res.Trace[0].NonTemporal || res.Trace[0].LoadAddr != 0x700100 {
		t.Errorf("prefetchnta event wrong: %+v", res.Trace[0])
	}
}

func TestSamples(t *testing.T) {
	src := `
	xorl %eax, %eax
	movl $100, %ecx
.Ltop:
	addl %ecx, %eax
	decl %ecx
	jne .Ltop
	ret
`
	u, err := asm.ParseString("t.s", "\t.text\n\t.type f,@function\nf:\n"+src+"\t.size f,.-f\n")
	if err != nil {
		t.Fatal(err)
	}
	layout, err := relax.Relax(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(&Config{Unit: u, Layout: layout, Entry: "f", SampleEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) < 25 {
		t.Errorf("samples = %d, want ~30", len(res.Samples))
	}
	for _, s := range res.Samples {
		if s.Node == nil {
			t.Fatal("sample without node")
		}
	}
}

func TestInstructionBudget(t *testing.T) {
	src := "\t.text\n\t.type f,@function\nf:\n.Lspin:\n\tjmp .Lspin\n\t.size f,.-f\n"
	u, err := asm.ParseString("t.s", src)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := relax.Relax(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(&Config{Unit: u, Layout: layout, Entry: "f", MaxInsts: 1000}); err == nil {
		t.Error("infinite loop must exhaust the budget")
	}
}

func TestUnknownCallFails(t *testing.T) {
	if _, err := tryRun("\tcall printf\n\tret\n", nil); err == nil {
		t.Error("external call must fail without ExternalCalls")
	}
}

func TestExternalCallsClobber(t *testing.T) {
	src := "\t.text\n\t.type f,@function\nf:\n\tmovl $7, %ebx\n\tcall puts\n\tmovq %rbx, %rax\n\tret\n\t.size f,.-f\n"
	u, err := asm.ParseString("t.s", src)
	if err != nil {
		t.Fatal(err)
	}
	layout, err := relax.Relax(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(&Config{Unit: u, Layout: layout, Entry: "f", ExternalCalls: true})
	if err != nil {
		t.Fatal(err)
	}
	// rbx is callee-saved: survives.
	if rax(res) != 7 {
		t.Errorf("callee-saved rbx = %d", rax(res))
	}
}

func TestFlagParity(t *testing.T) {
	// 3 has two bits set => even parity => PF set.
	res := run(t, `
	movl $3, %eax
	testl %eax, %eax
	setp %al
	movzbl %al, %eax
	ret
`, nil)
	if rax(res) != 1 {
		t.Error("PF after test of 3 must be set")
	}
}

func TestOverflowFlag(t *testing.T) {
	res := run(t, `
	movl $0x7fffffff, %eax
	addl $1, %eax
	seto %al
	movzbl %al, %eax
	ret
`, nil)
	if rax(res) != 1 {
		t.Error("OF after int32 max + 1 must be set")
	}
	res = run(t, `
	movl $0x7fffffff, %eax
	addl $1, %eax
	setc %al
	movzbl %al, %eax
	ret
`, nil)
	if rax(res) != 0 {
		t.Error("CF after int32 max + 1 must be clear")
	}
}

func TestTraceNodeIdentity(t *testing.T) {
	res := run(t, "\tnop\n\tnop\n\tret\n", nil)
	var nodes []*ir.Node
	for _, e := range res.Trace {
		nodes = append(nodes, e.Node)
	}
	if len(nodes) != 3 || nodes[0] == nodes[1] {
		t.Error("trace must reference distinct IR nodes")
	}
}

func TestChecksumAndClone(t *testing.T) {
	run1 := run(t, "\tmovl $7, %eax\n\tmovq %rax, -8(%rsp)\n\tret\n", nil)
	run2 := run(t, "\tmovl $7, %eax\n\tmovq %rax, -8(%rsp)\n\tret\n", nil)
	if run1.State.Checksum() != run2.State.Checksum() {
		t.Error("identical programs must produce identical checksums")
	}
	run3 := run(t, "\tmovl $8, %eax\n\tmovq %rax, -8(%rsp)\n\tret\n", nil)
	if run1.State.Checksum() == run3.State.Checksum() {
		t.Error("different results must produce different checksums")
	}

	// Clone must be deep: mutating the clone's memory and registers
	// must not affect the original.
	orig := run1.State
	cp := orig.Clone()
	cp.WriteReg(x86.RAX, 99)
	cp.WriteMem(0x12345, 0xFF, 1)
	if orig.ReadReg(x86.RAX) == 99 {
		t.Error("Clone shares registers")
	}
	if orig.ReadMem(0x12345, 1) == 0xFF {
		t.Error("Clone shares memory pages")
	}
	if cp.Checksum() == orig.Checksum() {
		t.Error("mutated clone should differ")
	}
}
