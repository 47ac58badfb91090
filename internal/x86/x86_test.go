package x86

import (
	"testing"
	"testing/quick"
)

func TestRegByName(t *testing.T) {
	cases := []struct {
		name string
		want Reg
	}{
		{"rax", RAX}, {"r15", R15}, {"eax", EAX}, {"r8d", R8D},
		{"ax", AX}, {"al", AL}, {"ah", AH}, {"sil", SIL},
		{"xmm0", XMM0}, {"xmm15", XMM15}, {"rip", RIP},
	}
	for _, c := range cases {
		got, ok := RegByName(c.name)
		if !ok || got != c.want {
			t.Errorf("RegByName(%q) = %v, %v; want %v", c.name, got, ok, c.want)
		}
	}
	if _, ok := RegByName("bogus"); ok {
		t.Error("RegByName accepted bogus register")
	}
}

func TestRegNameRoundTrip(t *testing.T) {
	for r := Reg(1); r < numRegs; r++ {
		got, ok := RegByName(r.String())
		if !ok || got != r {
			t.Errorf("round trip failed for %v", r)
		}
	}
}

func TestRegFamilyAndWidth(t *testing.T) {
	cases := []struct {
		r      Reg
		family Reg
		width  Width
	}{
		{RAX, RAX, W64}, {EAX, RAX, W32}, {AX, RAX, W16}, {AL, RAX, W8},
		{AH, RAX, W8}, {R8D, R8, W32}, {R15B, R15, W8},
		{SPL, RSP, W8}, {XMM3, XMM3, W128},
	}
	for _, c := range cases {
		if got := c.r.Family(); got != c.family {
			t.Errorf("%v.Family() = %v, want %v", c.r, got, c.family)
		}
		if got := c.r.Width(); got != c.width {
			t.Errorf("%v.Width() = %v, want %v", c.r, got, c.width)
		}
	}
}

func TestWithWidth(t *testing.T) {
	if got := RAX.WithWidth(W32); got != EAX {
		t.Errorf("RAX.WithWidth(W32) = %v", got)
	}
	if got := R10B.WithWidth(W64); got != R10 {
		t.Errorf("R10B.WithWidth(W64) = %v", got)
	}
	if got := EDI.WithWidth(W8); got != DIL {
		t.Errorf("EDI.WithWidth(W8) = %v", got)
	}
}

func TestRegNum(t *testing.T) {
	if RAX.Num() != 0 || RDI.Num() != 7 || R8.Num() != 8 || R15.Num() != 15 {
		t.Error("64-bit register numbers wrong")
	}
	if AH.Num() != 4 || BH.Num() != 7 {
		t.Error("high-byte register numbers wrong")
	}
	if XMM9.Num() != 9 {
		t.Error("xmm register number wrong")
	}
}

func TestNeedsREX(t *testing.T) {
	for _, r := range []Reg{R8, R12D, R9W, R14B, SIL, SPL, XMM12} {
		if !r.NeedsREX() {
			t.Errorf("%v.NeedsREX() = false", r)
		}
	}
	for _, r := range []Reg{RAX, EBX, CX, DL, AH, XMM7} {
		if r.NeedsREX() {
			t.Errorf("%v.NeedsREX() = true", r)
		}
	}
}

func TestParseMnemonic(t *testing.T) {
	cases := []struct {
		in   string
		want Mnem
	}{
		{"movl", Mnem{Op: OpMOV, Width: W32}},
		{"mov", Mnem{Op: OpMOV}},
		{"addq", Mnem{Op: OpADD, Width: W64}},
		{"testb", Mnem{Op: OpTEST, Width: W8}},
		{"sall", Mnem{Op: OpSHL, Width: W32}},
		{"jne", Mnem{Op: OpJCC, Cond: CondNE}},
		{"jz", Mnem{Op: OpJCC, Cond: CondE}},
		{"jnle", Mnem{Op: OpJCC, Cond: CondG}},
		{"jmp", Mnem{Op: OpJMP}},
		{"sete", Mnem{Op: OpSET, Cond: CondE, Width: W8}},
		{"cmovle", Mnem{Op: OpCMOV, Cond: CondLE}},
		{"cmovll", Mnem{Op: OpCMOV, Cond: CondL, Width: W32}},
		{"cmovnel", Mnem{Op: OpCMOV, Cond: CondNE, Width: W32}},
		{"movzbl", Mnem{Op: OpMOVZX, Width: W32, SrcWidth: W8}},
		{"movsbl", Mnem{Op: OpMOVSX, Width: W32, SrcWidth: W8}},
		{"movslq", Mnem{Op: OpMOVSX, Width: W64, SrcWidth: W32}},
		{"movswq", Mnem{Op: OpMOVSX, Width: W64, SrcWidth: W16}},
		{"leaq", Mnem{Op: OpLEA, Width: W64}},
		{"cltq", Mnem{Op: OpCLTQ}},
		{"retq", Mnem{Op: OpRET}},
		{"nop", Mnem{Op: OpNOP}},
		{"movss", Mnem{Op: OpMOVSS}},
		{"movsd", Mnem{Op: OpMOVSD}},
		{"prefetchnta", Mnem{Op: OpPREFETCHNTA}},
		{"cvtsi2sdq", Mnem{Op: OpCVTSI2SD, Width: W64}},
		{"cvttsd2si", Mnem{Op: OpCVTTSD2SI}},
		{"pxor", Mnem{Op: OpPXOR}},
	}
	for _, c := range cases {
		got, ok := ParseMnemonic(c.in)
		if !ok {
			t.Errorf("ParseMnemonic(%q) failed", c.in)
			continue
		}
		if got != c.want {
			t.Errorf("ParseMnemonic(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"bogus", "movzlq", "jxx", "setxx", "addx"} {
		if m, ok := ParseMnemonic(bad); ok {
			t.Errorf("ParseMnemonic(%q) = %+v, want failure", bad, m)
		}
	}
}

func TestMnemonicRoundTrip(t *testing.T) {
	// Every canonical mnemonic must parse back to the same Mnem.
	mnems := []Mnem{
		{Op: OpMOV, Width: W64},
		{Op: OpADD, Width: W8},
		{Op: OpJCC, Cond: CondLE},
		{Op: OpSET, Cond: CondA, Width: W8},
		{Op: OpMOVZX, Width: W64, SrcWidth: W16},
		{Op: OpMOVSX, Width: W32, SrcWidth: W8},
		{Op: OpJMP}, {Op: OpRET}, {Op: OpLEAVE}, {Op: OpNOP},
		{Op: OpMOVSD}, {Op: OpMULSS},
	}
	for _, m := range mnems {
		s := m.Mnemonic()
		got, ok := ParseMnemonic(s)
		if !ok {
			t.Errorf("canonical mnemonic %q does not parse", s)
			continue
		}
		if got != m {
			t.Errorf("round trip %q: got %+v, want %+v", s, got, m)
		}
	}
}

func TestCondNegate(t *testing.T) {
	pairs := [][2]Cond{{CondE, CondNE}, {CondL, CondGE}, {CondB, CondAE}, {CondO, CondNO}}
	for _, p := range pairs {
		if p[0].Negate() != p[1] || p[1].Negate() != p[0] {
			t.Errorf("negate broken for %v/%v", p[0], p[1])
		}
	}
}

func TestCondNegateInvolution(t *testing.T) {
	f := func(c uint8) bool {
		cond := Cond(c & 0xF)
		return cond.Negate().Negate() == cond && cond.Negate() != cond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCondFlagsRead(t *testing.T) {
	if CondE.FlagsRead() != ZF || CondNE.FlagsRead() != ZF {
		t.Error("e/ne must read ZF")
	}
	if CondL.FlagsRead() != SF|OF {
		t.Error("l must read SF|OF")
	}
	if CondBE.FlagsRead() != CF|ZF {
		t.Error("be must read CF|ZF")
	}
	if CondLE.FlagsRead() != SF|OF|ZF {
		t.Error("le must read SF|OF|ZF")
	}
}

func TestOperandString(t *testing.T) {
	cases := []struct {
		op   Operand
		want string
	}{
		{Imm(5), "$5"},
		{Imm(-1), "$-1"},
		{RegOp(RAX), "%rax"},
		{MemOp(Mem{Disp: 8, Base: RSP}), "8(%rsp)"},
		{MemOp(Mem{Base: RSI, Index: R8, Scale: 4}), "(%rsi,%r8,4)"},
		{MemOp(Mem{Disp: 1, Base: RDI, Index: R8, Scale: 4}), "1(%rdi,%r8,4)"},
		{MemOp(Mem{Disp: -4, Base: RBP}), "-4(%rbp)"},
		{MemOp(Mem{Sym: "x", Base: RIP}), "x(%rip)"},
		{MemOp(Mem{Sym: "tbl", Disp: 8, Base: RIP}), "tbl+8(%rip)"},
		{MemOp(Mem{Disp: 0}), "0"},
		{LabelOp(".L5"), ".L5"},
		{Operand{Kind: KindReg, Reg: RAX, Star: true}, "*%rax"},
		{MemOp(Mem{Sym: "tbl", Disp: -8, Base: RIP}), "tbl-8(%rip)"},
		{Operand{Kind: KindMem, Mem: Mem{Base: RAX}, Star: true}, "*(%rax)"},
		{Operand{Kind: KindLabel, Sym: "f", Off: 8}, "f+8"},
		{Operand{Kind: KindLabel, Sym: "f", Off: -3}, "f-3"},
		{Operand{}, "<none>"},
	}
	for _, c := range cases {
		if got := c.op.String(); got != c.want {
			t.Errorf("operand %#v prints %q, want %q", c.op, got, c.want)
		}
	}
}

func TestInstString(t *testing.T) {
	in := NewInst(Mnem{Op: OpMOV, Width: W32},
		RegOp(EDX), MemOp(Mem{Base: RSI, Index: R8, Scale: 4}))
	if got := in.String(); got != "movl\t%edx, (%rsi,%r8,4)" {
		t.Errorf("got %q", got)
	}
	j := NewInst(Mnem{Op: OpJCC, Cond: CondG}, LabelOp(".L3"))
	if got := j.String(); got != "jg\t.L3" {
		t.Errorf("got %q", got)
	}
}

// printSink keeps String's result escaping, as a caller's would.
var printSink string

// TestInstAppendToNoAllocs: printing an instruction into a buffer with
// room allocates nothing; String allocates only its result.
func TestInstAppendToNoAllocs(t *testing.T) {
	in := NewInst(Mnem{Op: OpMOV, Width: W32},
		RegOp(EDX), MemOp(Mem{Base: RSI, Index: R8, Scale: 4}))
	buf := make([]byte, 0, 64)
	if a := testing.AllocsPerRun(100, func() { buf = in.AppendTo(buf[:0]) }); a != 0 {
		t.Errorf("AppendTo allocates %.1f times, want 0", a)
	}
	if got := string(in.AppendTo([]byte("x:"))); got != "x:movl\t%edx, (%rsi,%r8,4)" {
		t.Errorf("AppendTo onto a prefix = %q", got)
	}
	if a := testing.AllocsPerRun(100, func() { printSink = in.String() }); a != 1 {
		t.Errorf("String allocates %.1f times, want 1", a)
	}
}

func TestInferWidth(t *testing.T) {
	in := NewInst(Mnem{Op: OpMOV}, RegOp(EAX), RegOp(EAX))
	if in.Width != W32 {
		t.Errorf("inferred width %v, want W32", in.Width)
	}
	in = NewInst(Mnem{Op: OpADD}, Imm(1), RegOp(R8))
	if in.Width != W64 {
		t.Errorf("inferred width %v, want W64", in.Width)
	}
}

func TestBranchTarget(t *testing.T) {
	j := NewInst(Mnem{Op: OpJMP}, LabelOp(".L9"))
	if tgt, ok := j.BranchTarget(); !ok || tgt != ".L9" {
		t.Errorf("BranchTarget = %q, %v", tgt, ok)
	}
	ind := NewInst(Mnem{Op: OpJMP}, Operand{Kind: KindReg, Reg: RAX, Star: true})
	if _, ok := ind.BranchTarget(); ok {
		t.Error("indirect jump reported a direct target")
	}
	if !ind.IsIndirectBranch() {
		t.Error("indirect jump not detected")
	}
}

func TestMemoryEffects(t *testing.T) {
	load := NewInst(Mnem{Op: OpMOV, Width: W64}, MemOp(Mem{Disp: 24, Base: RSP}), RegOp(RDX))
	if !load.ReadsMemory() || load.WritesMemory() {
		t.Error("load classified wrong")
	}
	store := NewInst(Mnem{Op: OpMOV, Width: W32}, RegOp(EDX), MemOp(Mem{Base: RSI}))
	if store.ReadsMemory() || !store.WritesMemory() {
		t.Error("store classified wrong")
	}
	rmw := NewInst(Mnem{Op: OpADD, Width: W32}, Imm(1), MemOp(Mem{Disp: -4, Base: RBP}))
	if !rmw.ReadsMemory() || !rmw.WritesMemory() {
		t.Error("read-modify-write classified wrong")
	}
	cmp := NewInst(Mnem{Op: OpCMP, Width: W32}, Imm(0), MemOp(Mem{Disp: -4, Base: RBP}))
	if !cmp.ReadsMemory() || cmp.WritesMemory() {
		t.Error("cmp-with-memory classified wrong")
	}
	lea := NewInst(Mnem{Op: OpLEA, Width: W64}, MemOp(Mem{Base: R8, Index: RDI, Scale: 1}), RegOp(RBX))
	if lea.ReadsMemory() || lea.WritesMemory() {
		t.Error("lea classified wrong")
	}
	pf := NewInst(Mnem{Op: OpPREFETCHNTA}, MemOp(Mem{Base: RAX}))
	if pf.WritesMemory() {
		t.Error("prefetch classified as store")
	}
}

func TestCloneIsDeep(t *testing.T) {
	in := NewInst(Mnem{Op: OpADD, Width: W64}, Imm(1), RegOp(RAX))
	cp := in.Clone()
	cp.Args[1] = RegOp(RBX)
	if in.Args[1].Reg != RAX {
		t.Error("Clone shares operand storage")
	}
}
