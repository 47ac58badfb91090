package ir

import (
	"strings"
	"testing"

	"mao/internal/x86"
)

// buildUnit constructs a small unit by hand:
//
//	.text
//	.type f,@function
//	f:  nop; jmp .L1
//	.section .rodata   (jump table fragment)
//	.L2: .quad ...
//	.text
//	.L1: ret
//	.size f, .-f
func buildUnit(t *testing.T) *Unit {
	t.Helper()
	u := NewUnit("test.s")
	u.Append(DirectiveNode(".text"))
	u.Append(DirectiveNode(".type", "f", "@function"))
	u.Append(LabelNode("f"))
	u.Append(InstNode(x86.NewInst(x86.Mnem{Op: x86.OpNOP})))
	u.Append(InstNode(x86.NewInst(x86.Mnem{Op: x86.OpJMP}, x86.LabelOp(".L1"))))
	u.Append(DirectiveNode(".section", ".rodata"))
	u.Append(LabelNode(".L2"))
	u.Append(DirectiveNode(".quad", ".L1"))
	u.Append(DirectiveNode(".text"))
	u.Append(LabelNode(".L1"))
	u.Append(InstNode(x86.NewInst(x86.Mnem{Op: x86.OpRET})))
	u.Append(DirectiveNode(".size", "f", ".-f"))
	if err := u.Analyze(); err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return u
}

func TestAnalyzeStructure(t *testing.T) {
	u := buildUnit(t)
	if got := u.Sections(); len(got) != 2 || got[0] != ".text" || got[1] != ".rodata" {
		t.Errorf("Sections() = %v", got)
	}
	fs := u.Functions()
	if len(fs) != 1 || fs[0].Name != "f" {
		t.Fatalf("Functions() = %v", fs)
	}
	f := fs[0]
	if f.SectionName != ".text" {
		t.Errorf("function section = %q", f.SectionName)
	}
	insts := f.Instructions()
	if len(insts) != 3 {
		t.Fatalf("Instructions() returned %d, want 3", len(insts))
	}
	if insts[0].Inst.Op != x86.OpNOP || insts[2].Inst.Op != x86.OpRET {
		t.Error("instruction order wrong")
	}
	// The .rodata fragment must be excluded from code entries but
	// present in full entries.
	for _, n := range f.CodeEntries() {
		if n.Section != ".text" {
			t.Errorf("CodeEntries leaked %v from %s", n, n.Section)
		}
	}
	all := f.Entries()
	var sawRodata bool
	for _, n := range all {
		if n.Section == ".rodata" {
			sawRodata = true
		}
	}
	if !sawRodata {
		t.Error("Entries() should include the interleaved .rodata fragment")
	}
}

func TestFindLabel(t *testing.T) {
	u := buildUnit(t)
	if n := u.FindLabel(".L1"); n == nil || n.Kind != NodeLabel {
		t.Error("FindLabel(.L1) failed")
	}
	if n := u.FindLabel("nope"); n != nil {
		t.Error("FindLabel returned node for missing label")
	}
}

func TestDuplicateLabel(t *testing.T) {
	u := NewUnit("dup.s")
	u.Append(LabelNode("a"))
	u.Append(LabelNode("a"))
	if err := u.Analyze(); err == nil {
		t.Error("Analyze accepted duplicate label")
	}
}

func TestListEdits(t *testing.T) {
	u := buildUnit(t)
	f := u.Functions()[0]
	insts := f.Instructions()
	nop := InstNode(x86.NewInst(x86.Mnem{Op: x86.OpNOP}))
	u.List.InsertBefore(nop, insts[2])
	if nop.Section != ".text" {
		t.Errorf("inserted node inherited section %q", nop.Section)
	}
	if got := len(f.Instructions()); got != 4 {
		t.Fatalf("after insert, %d instructions", got)
	}
	u.List.Remove(nop)
	if got := len(f.Instructions()); got != 3 {
		t.Fatalf("after remove, %d instructions", got)
	}
	// Removing while iterating over the snapshot must be safe.
	for _, n := range f.Instructions() {
		if n.Inst.Op == x86.OpNOP {
			u.List.Remove(n)
		}
	}
	if got := len(f.Instructions()); got != 2 {
		t.Fatalf("after snapshot removal, %d instructions", got)
	}
}

func TestInsertAfterBack(t *testing.T) {
	var l List
	a := l.Append(LabelNode("a"))
	b := l.InsertAfter(LabelNode("b"), a)
	if l.Back() != b || l.Len() != 2 {
		t.Error("InsertAfter at tail broken")
	}
	c := l.InsertBefore(LabelNode("c"), a)
	if l.Front() != c || c.Next() != a {
		t.Error("InsertBefore at head broken")
	}
}

// TestListOwns: a list owns exactly the nodes it indexed, linked or
// since removed; a fresh node, a clone or another list's node is not
// its own.
func TestListOwns(t *testing.T) {
	var l, other List
	a := l.Append(LabelNode("a"))
	b := l.Append(LabelNode("b"))
	x := other.Append(LabelNode("x"))
	if !l.Owns(a) || !l.Owns(b) {
		t.Error("list does not own its linked nodes")
	}
	l.Remove(b)
	if !l.Owns(b) {
		t.Error("list does not own a node it removed")
	}
	if l.Owns(x) || other.Owns(a) {
		t.Error("list owns another list's node")
	}
	if l.Owns(LabelNode("fresh")) || l.Owns(a.Clone()) {
		t.Error("list owns a node it never indexed")
	}
	var empty List
	if empty.Owns(LabelNode("fresh")) {
		t.Error("empty list owns a fresh node")
	}
}

func TestNextPrevInst(t *testing.T) {
	u := buildUnit(t)
	f := u.Functions()[0]
	first := f.Instructions()[0]
	second := first.NextInst()
	if second == nil || second.Inst.Op != x86.OpJMP {
		t.Fatal("NextInst failed")
	}
	if second.PrevInst() != first {
		t.Error("PrevInst failed")
	}
}

func TestUnitString(t *testing.T) {
	u := buildUnit(t)
	s := u.String()
	for _, want := range []string{".type\tf,@function", "f:", "\tjmp\t.L1", ".size\tf,.-f"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestAlignDirective(t *testing.T) {
	n := DirectiveNode(".p2align", "4", "", "15")
	if a, ok := n.IsAlignDirective(); !ok || a != 16 {
		t.Errorf("p2align 4 -> %d, %v", a, ok)
	}
	if m := n.AlignMax(); m != 15 {
		t.Errorf("AlignMax = %d", m)
	}
	n = DirectiveNode(".balign", "32")
	if a, ok := n.IsAlignDirective(); !ok || a != 32 {
		t.Errorf("balign 32 -> %d, %v", a, ok)
	}
	n = DirectiveNode(".globl", "f")
	if _, ok := n.IsAlignDirective(); ok {
		t.Error(".globl misdetected as alignment")
	}
	n = DirectiveNode(".p2align")
	if a, ok := n.IsAlignDirective(); !ok || a != 1 {
		t.Errorf("bare p2align -> %d, %v", a, ok)
	}
}

func TestContains(t *testing.T) {
	u := buildUnit(t)
	f := u.Functions()[0]
	if !f.Contains(f.Instructions()[0]) {
		t.Error("Contains(first instruction) = false")
	}
	if f.Contains(u.List.Front()) {
		t.Error("Contains(.text before function) = true")
	}
}
