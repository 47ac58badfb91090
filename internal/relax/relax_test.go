package relax

import (
	"encoding/hex"
	"strings"
	"testing"

	"mao/internal/asm"
	"mao/internal/ir"
	"mao/internal/x86"
	"mao/internal/x86/encode"
)

func parse(t *testing.T, src string) *ir.Unit {
	t.Helper()
	u, err := asm.ParseString("t.s", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return u
}

func relaxed(t *testing.T, src string) (*ir.Unit, *Layout) {
	t.Helper()
	u := parse(t, src)
	l, err := Relax(u, nil)
	if err != nil {
		t.Fatalf("relax: %v", err)
	}
	return u, l
}

// paperBefore reconstructs the paper's Section II example: the
// <instructions> elision is a 119-byte filler so that the cmpl lands
// at offset 0x8c exactly as printed.
const paperBefore = `
	push %rbp
	mov %rsp,%rbp
	movl $0x5,-0x4(%rbp)
	jmp .Lcheck
.Lbody:
	addl $0x1,-0x4(%rbp)
	subl $0x1,-0x4(%rbp)
	.skip 119
.Lcheck:
	cmpl $0x0,-0x4(%rbp)
	jne .Lbody
`

// bytesOf returns l.Bytes(n), failing the test on an error.
func bytesOf(t *testing.T, l *Layout, n *ir.Node) []byte {
	t.Helper()
	b, err := l.Bytes(n)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func findInsts(u *ir.Unit) []*ir.Node {
	var out []*ir.Node
	for n := u.List.Front(); n != nil; n = n.Next() {
		if n.Kind == ir.NodeInst {
			out = append(out, n)
		}
	}
	return out
}

func TestPaperSection2Before(t *testing.T) {
	u, l := relaxed(t, paperBefore)
	insts := findInsts(u)

	wantAddrs := []int64{0x0, 0x1, 0x4, 0xb, 0xd, 0x11, 0x8c, 0x90}
	for i, n := range insts {
		if got := l.Addr(n); got != wantAddrs[i] {
			t.Errorf("inst %d (%s) at %#x, want %#x", i, n.Inst, got, wantAddrs[i])
		}
	}
	// jmp fits rel8: eb 7f.
	jmp := insts[3]
	if got := hex.EncodeToString(bytesOf(t, l, jmp)); got != "eb7f" {
		t.Errorf("jmp bytes = %s, want eb7f", got)
	}
	// jne needs rel32 (backward -0x89).
	jne := insts[7]
	if got := hex.EncodeToString(bytesOf(t, l, jne)); got != "0f8577ffffff" {
		t.Errorf("jne bytes = %s", got)
	}
}

// TestPaperSection2AfterNop inserts the single nop right before
// .Lcheck and verifies the paper's second listing: the jmp grows to 5
// bytes (e9 80 00 00 00), moving the loop body down by 3+1 bytes.
func TestPaperSection2AfterNop(t *testing.T) {
	u := parse(t, paperBefore)
	check := u.FindLabel(".Lcheck")
	u.List.InsertBefore(ir.InstNode(x86.NewInst(x86.Mnem{Op: x86.OpNOP})), check)

	l, err := Relax(u, nil)
	if err != nil {
		t.Fatalf("relax: %v", err)
	}
	insts := findInsts(u)
	// push, mov, movl, jmp, addl, subl, nop, cmpl, jne
	wantAddrs := []int64{0x0, 0x1, 0x4, 0xb, 0x10, 0x14, 0x8f, 0x90, 0x94}
	for i, n := range insts {
		if got := l.Addr(n); got != wantAddrs[i] {
			t.Errorf("inst %d (%s) at %#x, want %#x", i, n.Inst, got, wantAddrs[i])
		}
	}
	jmp := insts[3]
	if got := hex.EncodeToString(bytesOf(t, l, jmp)); got != "e980000000" {
		t.Errorf("jmp bytes = %s, want e980000000", got)
	}
	jne := insts[8]
	if got := hex.EncodeToString(bytesOf(t, l, jne)); got != "0f8576ffffff" {
		t.Errorf("jne bytes = %s, want 0f8576ffffff (paper listing)", got)
	}
	if l.Iterations < 2 {
		t.Errorf("iterations = %d; growth requires at least one extra pass", l.Iterations)
	}
}

func TestShortLoopStaysShort(t *testing.T) {
	_, l := relaxed(t, `
.Ltop:
	addl $1, %eax
	cmpl $10, %eax
	jl .Ltop
`)
	if end := l.SectionEnd[".text"]; end != 3+3+2 {
		t.Errorf("section size = %d, want 8 (short backward branch)", end)
	}
}

func TestCascadingGrowth(t *testing.T) {
	// Two branches: growing the first pushes the second's target out
	// of range, forcing it to grow too — the repeated part of
	// repeated relaxation.
	var b strings.Builder
	b.WriteString("\tjmp .La\n\tjmp .Lb\n")
	// 120 bytes of filler: .La is reachable rel8 from jmp1 only while
	// jmp2 stays short.
	b.WriteString("\t.skip 120\n.La:\n\tnop\n")
	b.WriteString("\t.skip 1\n.Lb:\n\tret\n")
	u, l := relaxed(t, b.String())

	insts := findInsts(u)
	jmp1, jmp2 := insts[0], insts[1]
	// jmp1: target at 2+2+120 = 124 if both short; rel = 124-4 = 120,
	// fits. But jmp2's target .Lb = 124+1+1 = 126; rel = 126-4 = 122,
	// fits too. Verify both stayed short.
	if l.Len(jmp1) != 2 || l.Len(jmp2) != 2 {
		t.Fatalf("lengths = %d, %d; want both short", l.Len(jmp1), l.Len(jmp2))
	}

	// Now add 10 more filler bytes, pushing .Lb (but not .La) out of
	// rel8 range for jmp2; jmp2 grows, which must NOT grow jmp1
	// (backward-stable).
	u2 := parse(t, strings.Replace(b.String(), ".skip 1\n", ".skip 11\n", 1))
	l2, err := Relax(u2, nil)
	if err != nil {
		t.Fatal(err)
	}
	insts2 := findInsts(u2)
	if l2.Len(insts2[0]) != 2 {
		t.Errorf("jmp1 grew unnecessarily to %d", l2.Len(insts2[0]))
	}
	if l2.Len(insts2[1]) != 5 {
		t.Errorf("jmp2 length = %d, want 5", l2.Len(insts2[1]))
	}
}

func TestAlignmentPadding(t *testing.T) {
	u, l := relaxed(t, `
	nop
	.p2align 4
.Laligned:
	ret
`)
	lbl := u.FindLabel(".Laligned")
	if got := l.Addr(lbl); got != 16 {
		t.Errorf("aligned label at %d, want 16", got)
	}
	insts := findInsts(u)
	if got := l.Addr(insts[1]); got != 16 {
		t.Errorf("ret at %d, want 16", got)
	}
}

func TestAlignmentMaxSkip(t *testing.T) {
	// .p2align 4,,3 must not pad when more than 3 bytes are needed.
	u, l := relaxed(t, `
	nop
	.p2align 4,,3
.Lx:
	ret
`)
	if got := l.Addr(u.FindLabel(".Lx")); got != 1 {
		t.Errorf("label at %d, want 1 (padding suppressed)", got)
	}
	// With 15 allowed it pads.
	u2, l2 := relaxed(t, "\tnop\n\t.p2align 4,,15\n.Lx:\n\tret\n")
	if got := l2.Addr(u2.FindLabel(".Lx")); got != 16 {
		t.Errorf("label at %d, want 16", got)
	}
}

func TestDataDirectiveSizes(t *testing.T) {
	for _, tt := range []struct {
		dir  string
		want int64
	}{
		{".byte 1,2,3", 3},
		{".word 5", 2},
		{".2byte 1,2", 4},
		{".long 1,2", 8},
		{".4byte 3", 4},
		{".quad 9", 8},
		{".8byte 9", 8},
		{".zero 7", 7},
		{`.string "ab"`, 3},
		{`.ascii "cd"`, 2},
		{`.string "a\n\"b"`, 5},
		// An escape is one byte, as GNU as assembles it: up to three
		// octal digits, or x and every hex digit after it.
		{`.ascii "\101"`, 1},
		{`.ascii "\377\001"`, 2},
		{`.ascii "\1012"`, 2},
		{`.ascii "\x41"`, 1},
		{`.ascii "\x4142"`, 1},
	} {
		_, l := relaxed(t, "\t.data\n\t"+tt.dir+"\n")
		if got := l.SectionEnd[".data"]; got != tt.want {
			t.Errorf("%s: size %d, want %d", tt.dir, got, tt.want)
		}
	}
}

func TestSectionsLayoutIndependently(t *testing.T) {
	_, l := relaxed(t, `
	.text
	nop
	.data
	.quad 1
	.text
	ret
`)
	if l.SectionEnd[".text"] != 2 {
		t.Errorf(".text size = %d, want 2", l.SectionEnd[".text"])
	}
	if l.SectionEnd[".data"] != 8 {
		t.Errorf(".data size = %d, want 8", l.SectionEnd[".data"])
	}
}

func TestLabelResolution(t *testing.T) {
	_, l := relaxed(t, "\tnop\n.La:\n\tnop\n.Lb:\n")
	if a, ok := l.SymAddr(".La"); !ok || a != 1 {
		t.Errorf(".La = %d, %v", a, ok)
	}
	if b, ok := l.SymAddr(".Lb"); !ok || b != 2 {
		t.Errorf(".Lb = %d, %v", b, ok)
	}
	if _, ok := l.SymAddr("missing"); ok {
		t.Error("missing label resolved")
	}
}

func TestImage(t *testing.T) {
	u, l := relaxed(t, "\tmovl $1, %eax\n\tret\n")
	img, err := l.Image(u, ".text")
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0xB8, 1, 0, 0, 0, 0xC3}
	if string(img) != string(want) {
		t.Errorf("image = %x, want %x", img, want)
	}
}

func TestRelaxationIdempotent(t *testing.T) {
	// Re-relaxing an already-relaxed unit must converge to identical
	// addresses (fixpoint property).
	u, l1 := relaxed(t, paperBefore)
	l2, err := Relax(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	for n := u.List.Front(); n != nil; n = n.Next() {
		if l1.Addr(n) != l2.Addr(n) || l1.Len(n) != l2.Len(n) {
			t.Fatalf("non-deterministic layout at %v", n)
		}
	}
}

func TestIterationCap(t *testing.T) {
	u := parse(t, "\tjmp .La\n.La:\n\tret\n")
	if _, err := Relax(u, &Options{MaxIterations: 1}); err == nil {
		t.Error("expected iteration-cap error with MaxIterations=1")
	}
}

// Property: inserting any single-byte nop never shrinks any section
// and never invalidates branch reachability (every branch still
// encodes).
func TestNopInsertionMonotonic(t *testing.T) {
	u, l1 := relaxed(t, paperBefore)
	before := l1.SectionEnd[".text"]
	insts := findInsts(u)
	for i := range insts {
		u2 := parse(t, paperBefore)
		insts2 := findInsts(u2)
		u2.List.InsertBefore(ir.InstNode(encode.Nop(1)), insts2[i])
		l2, err := Relax(u2, nil)
		if err != nil {
			t.Fatalf("insert before inst %d: %v", i, err)
		}
		after := l2.SectionEnd[".text"]
		if after < before+1 {
			t.Errorf("inserting nop before inst %d shrank section: %d -> %d", i, before, after)
		}
	}
}
