package encode

import (
	"encoding/hex"
	"strings"
	"testing"

	"mao/internal/asm"
	"mao/internal/ir"
	"mao/internal/x86"
)

// inst parses a single instruction from AT&T text.
func inst(t *testing.T, src string) *x86.Inst {
	t.Helper()
	u, err := asm.ParseString("t.s", src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	for n := u.List.Front(); n != nil; n = n.Next() {
		if n.Kind == ir.NodeInst {
			return n.Inst
		}
	}
	t.Fatalf("no instruction in %q", src)
	return nil
}

func checkBytes(t *testing.T, src, wantHex string, ctx *Ctx) {
	t.Helper()
	got, err := Encode(inst(t, src), ctx)
	if err != nil {
		t.Errorf("Encode(%q): %v", src, err)
		return
	}
	want, err := hex.DecodeString(strings.ReplaceAll(wantHex, " ", ""))
	if err != nil {
		t.Fatalf("bad hex in test: %q", wantHex)
	}
	if string(got) != string(want) {
		t.Errorf("Encode(%q) = %x, want %x", src, got, want)
	}
}

// TestPaperSection2Listing encodes the paper's Section II example with
// the first listing's layout and verifies each encoding byte-for-byte.
// (The paper's printed rel32 for the final jne, "7a ff ff ff", is
// internally inconsistent with its own stated offsets — the
// arithmetically correct value from offset 0x90 to target 0xd is
// -0x89 = "77 ff ff ff" — so this test uses the computed value; the
// second listing in the paper is self-consistent and is checked
// verbatim in the relax package's tests.)
func TestPaperSection2Listing(t *testing.T) {
	syms := map[string]int64{".Lbody": 0xd, ".Lcheck": 0x8c}
	ctxAt := func(addr int64) *Ctx {
		return &Ctx{Addr: addr, SymAddr: func(s string) (int64, bool) {
			v, ok := syms[s]
			return v, ok
		}}
	}
	checkBytes(t, "push %rbp", "55", nil)
	checkBytes(t, "mov %rsp,%rbp", "48 89 e5", nil)
	checkBytes(t, "movl $0x5,-0x4(%rbp)", "c7 45 fc 05 00 00 00", nil)
	checkBytes(t, "jmp .Lcheck", "eb 7f", ctxAt(0xb))
	checkBytes(t, "addl $0x1,-0x4(%rbp)", "83 45 fc 01", nil)
	checkBytes(t, "subl $0x1,-0x4(%rbp)", "83 6d fc 01", nil)
	checkBytes(t, "cmpl $0x0,-0x4(%rbp)", "83 7d fc 00", nil)
	checkBytes(t, "jne .Lbody", "0f 85 77 ff ff ff", ctxAt(0x90))
}

// TestPaperSection2AfterNop checks the second (post-insertion) listing,
// which is self-consistent in the paper.
func TestPaperSection2AfterNop(t *testing.T) {
	syms := map[string]int64{".Lbody": 0x10, ".Lcheck": 0x90}
	ctxAt := func(addr int64) *Ctx {
		return &Ctx{Addr: addr, SymAddr: func(s string) (int64, bool) {
			v, ok := syms[s]
			return v, ok
		}}
	}
	// The jmp no longer fits rel8 and becomes e9 rel32 = 0x80.
	checkBytes(t, "jmpq .Lcheck", "e9 80 00 00 00", ctxAt(0xb))
	checkBytes(t, "nop", "90", nil)
	checkBytes(t, "jne .Lbody", "0f 85 76 ff ff ff", ctxAt(0x94))
}

func TestBasicEncodings(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"mov %eax,%eax", "89 c0"}, // the redundant zero-extension idiom
		{"andl $255,%eax", "25 ff 00 00 00"},
		{"subl $16, %r15d", "41 83 ef 10"},
		{"testl %r15d, %r15d", "45 85 ff"},
		{"movq 24(%rsp), %rdx", "48 8b 54 24 18"},
		{"movq 24(%rsp), %rcx", "48 8b 4c 24 18"},
		{"movq %rdx, %rcx", "48 89 d1"},
		{"movsbl 1(%rdi,%r8,4),%edx", "42 0f be 54 87 01"},
		{"movsbl (%rdi,%r8,4),%eax", "42 0f be 04 87"},
		{"movl %edx, (%rsi,%r8,4)", "42 89 14 86"},
		{"addq $1, %r8", "49 83 c0 01"},
		{"cmpl %r8d, %r9d", "45 39 c1"},
		{"movss %xmm0,(%rdi,%rax,4)", "f3 0f 11 04 87"},
		{"add $0x1,%rax", "48 83 c0 01"},
		{"cmp $0x8,%rax", "48 83 f8 08"},
		{"xorl %edi, %ebx", "31 fb"},
		{"subl %ebx, %ecx", "29 d9"},
		{"movl %ebx, %edi", "89 df"},
		{"shrl $12, %edi", "c1 ef 0c"},
		{"xorl %edi, %edx", "31 fa"},
		{"leal (%r8,%rdi,1), %ebx", "41 8d 1c 38"},
		{"movl %ebx, %ecx", "89 d9"},
		{"sarl %ecx", "d1 f9"},
		{"xorb $1, %dl", "80 f2 01"},
		{"leal 2(%rdx), %r8d", "44 8d 42 02"},
		{"movzbl %al, %eax", "0f b6 c0"},
		{"movslq %edi, %rax", "48 63 c7"},
		{"movl $5, %eax", "b8 05 00 00 00"},
		{"movb $1, %al", "b0 01"},
		{"movw $7, %cx", "66 b9 07 00"},
		{"movq $-1, %rax", "48 c7 c0 ff ff ff ff"},
		{"movabsq $81985529216486895, %r10", "49 ba ef cd ab 89 67 45 23 01"},
		{"push %rbp", "55"},
		{"push %r12", "41 54"},
		{"pop %rbx", "5b"},
		{"pushq $3", "6a 03"},
		{"pushq $300", "68 2c 01 00 00"},
		{"incl %eax", "ff c0"},
		{"decq %r9", "49 ff c9"},
		{"negl %edx", "f7 da"},
		{"notq %rax", "48 f7 d0"},
		{"imull %esi, %edi", "0f af fe"},
		{"imulq $8, %rax, %rdx", "48 6b d0 08"},
		{"idivl %ecx", "f7 f9"},
		{"cltq", "48 98"},
		{"cltd", "99"},
		{"cqto", "48 99"},
		{"ret", "c3"},
		{"leave", "c9"},
		{"nop", "90"},
		{"ud2", "0f 0b"},
		{"pause", "f3 90"},
		{"sete %al", "0f 94 c0"},
		{"setg %dl", "0f 9f c2"},
		{"cmovne %eax, %ebx", "0f 45 d8"},
		{"cmovle %rax, %rbx", "48 0f 4e d8"},
		{"xchg %rbx, %rcx", "48 87 d9"},
		{"xchg %eax, %ecx", "91"},
		{"xchg %rax, %r8", "49 90"},
		{"prefetchnta (%r9)", "41 0f 18 01"},
		{"prefetcht0 16(%rax)", "0f 18 48 10"},
		{"movl -4(%rbp), %eax", "8b 45 fc"},
		{"movq (%r13), %rax", "49 8b 45 00"},
		{"movl 0(%r12), %eax", "41 8b 04 24"},
		{"movl tbl(,%rdi,8), %eax", "8b 04 fd 00 00 00 00"},
		{"jmp *%rax", "ff e0"},
		{"jmp *16(%rbx)", "ff 63 10"},
		{"call *%r11", "41 ff d3"},
		{"movss (%rax), %xmm1", "f3 0f 10 08"},
		{"movsd %xmm2, 8(%rsp)", "f2 0f 11 54 24 08"},
		{"addsd %xmm1, %xmm0", "f2 0f 58 c1"},
		{"mulss %xmm3, %xmm3", "f3 0f 59 db"},
		{"xorps %xmm0, %xmm0", "0f 57 c0"},
		{"pxor %xmm1, %xmm1", "66 0f ef c9"},
		{"ucomisd %xmm0, %xmm1", "66 0f 2e c8"},
		{"cvtsi2sdq %rax, %xmm0", "f2 48 0f 2a c0"},
		{"cvttsd2si %xmm0, %eax", "f2 0f 2c c0"},
		{"movd %eax, %xmm0", "66 0f 6e c0"},
		{"movq %rax, %xmm0", "66 48 0f 6e c0"},
		{"movq %xmm0, %rax", "66 48 0f 7e c0"},
		{"movq %xmm1, %xmm2", "f3 0f 7e d1"},
		{"lock addl $1, (%rdi)", "f0 83 07 01"},
		{"testb $4, %dil", "40 f6 c7 04"},
		{"testq $256, %rdx", "48 f7 c2 00 01 00 00"},
		{"testl $8, %eax", "a9 08 00 00 00"},
		{"movb %ah, %dl", "88 e2"},
		{"shlq $3, %rdi", "48 c1 e7 03"},
		{"shll %cl, %ebx", "d3 e3"},
		{"shrl $1, %eax", "d1 e8"},
		{"rolw $5, %dx", "66 c1 c2 05"},
	}
	for _, c := range cases {
		checkBytes(t, c.src, c.want, nil)
	}
}

func TestEncodeErrors(t *testing.T) {
	bad := []string{
		"movq $0x123456789, (%rax)", // imm64 to memory
		"addq $0x123456789, %rax",   // imm64 ALU
		"movb %ah, %sil",            // high-byte with REX
		"lock jmp .L1",              // lock on a relative branch
		"lock call f",
	}
	for _, src := range bad {
		if b, err := Encode(inst(t, src), nil); err == nil {
			t.Errorf("Encode(%q) = %x, want error", src, b)
		}
	}
	// rsp as index register is unencodable.
	in := x86.NewInst(x86.Mnem{Op: x86.OpMOV, Width: x86.W32},
		x86.MemOp(x86.Mem{Base: x86.RAX, Index: x86.RSP, Scale: 2}), x86.RegOp(x86.EAX))
	if _, err := Encode(in, nil); err == nil {
		t.Error("rsp index accepted")
	}
}

func TestBranchSizing(t *testing.T) {
	syms := func(s string) (int64, bool) {
		if s == "near" {
			return 10, true
		}
		if s == "far" {
			return 10000, true
		}
		return 0, false
	}
	short, err := Length(inst(t, "jmp near"), &Ctx{Addr: 0, SymAddr: syms})
	if err != nil || short != 2 {
		t.Errorf("short jmp length = %d, %v", short, err)
	}
	long, err := Length(inst(t, "jmp far"), &Ctx{Addr: 0, SymAddr: syms})
	if err != nil || long != 5 {
		t.Errorf("long jmp length = %d, %v", long, err)
	}
	forced, err := Length(inst(t, "jmp near"), &Ctx{Addr: 0, SymAddr: syms, ForceLong: true})
	if err != nil || forced != 5 {
		t.Errorf("forced long jmp length = %d, %v", forced, err)
	}
	jcc, err := Length(inst(t, "jne far"), &Ctx{Addr: 0, SymAddr: syms})
	if err != nil || jcc != 6 {
		t.Errorf("long jcc length = %d, %v", jcc, err)
	}
	// Unknown symbols assemble to the long form with a placeholder.
	ext, err := Encode(inst(t, "call printf"), nil)
	if err != nil || len(ext) != 5 || ext[0] != 0xE8 {
		t.Errorf("external call = %x, %v", ext, err)
	}
}

func TestBackwardBranchRel8(t *testing.T) {
	syms := func(s string) (int64, bool) { return 0, s == ".L3" }
	b, err := Encode(inst(t, "jg .L3"), &Ctx{Addr: 0x20, SymAddr: syms})
	if err != nil {
		t.Fatal(err)
	}
	// rel8 = 0 - (0x20+2) = -0x22.
	if len(b) != 2 || b[0] != 0x7F || b[1] != 0xDE {
		t.Errorf("jg backward = %x", b)
	}
}

func TestRIPRelative(t *testing.T) {
	syms := func(s string) (int64, bool) {
		if s == "counter" {
			return 0x2000, true
		}
		return 0, false
	}
	b, err := Encode(inst(t, "movl counter(%rip), %eax"), &Ctx{Addr: 0x1000, SymAddr: syms})
	if err != nil {
		t.Fatal(err)
	}
	// 8b 05 disp32; disp = 0x2000 - (0x1000 + 6) = 0xffa.
	want := []byte{0x8B, 0x05, 0xFA, 0x0F, 0x00, 0x00}
	if string(b) != string(want) {
		t.Errorf("rip-relative = %x, want %x", b, want)
	}
	// Unknown symbol still has a fixed length.
	n, err := Length(inst(t, "movl extvar(%rip), %eax"), nil)
	if err != nil || n != 6 {
		t.Errorf("unknown rip-relative length = %d, %v", n, err)
	}
}

func TestNopLengths(t *testing.T) {
	for n := 1; n <= 9; n++ {
		in := Nop(n)
		got, err := Length(in, nil)
		if err != nil {
			t.Fatalf("Nop(%d): %v", n, err)
		}
		if got != n {
			t.Errorf("Nop(%d) encodes to %d bytes", n, got)
		}
	}
}

func TestNopSequence(t *testing.T) {
	for total := 1; total <= 64; total++ {
		sum := 0
		for _, in := range NopSequence(total) {
			n, err := Length(in, nil)
			if err != nil {
				t.Fatalf("NopSequence(%d): %v", total, err)
			}
			sum += n
		}
		if sum != total {
			t.Errorf("NopSequence(%d) sums to %d", total, sum)
		}
	}
	if got := len(OneByteNops(6)); got != 6 {
		t.Errorf("OneByteNops(6) returned %d instructions", got)
	}
}

func TestNopRoundTripThroughParser(t *testing.T) {
	// Synthesized nops must survive print -> parse -> encode with the
	// same length (alignment passes depend on this).
	for n := 1; n <= 9; n++ {
		in := Nop(n)
		re := inst(t, in.String())
		got, err := Length(re, nil)
		if err != nil || got != n {
			t.Errorf("Nop(%d) -> %q -> %d bytes (%v)", n, in.String(), got, err)
		}
	}
}
