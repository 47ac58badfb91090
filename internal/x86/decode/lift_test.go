package decode

import (
	"errors"
	"strings"
	"testing"

	"mao/internal/ir"
	"mao/internal/relax"
	"mao/internal/trace"
)

// countdown is a 7-byte loop:
//
//	0: xorl %eax,%eax;  2: decl %eax;  4: jne 2;  6: ret
const countdownHex = "31c0ffc875fcc3"

func TestToUnit(t *testing.T) {
	code := mustHex(t, countdownHex)
	tr := trace.NewCollector()
	u, err := ToUnit(code, UnitOptions{FileName: "loop.bin", Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}

	// The unit is one analyzed .text function.
	fns := u.Functions()
	if len(fns) != 1 || fns[0].Name != "text" {
		t.Fatalf("functions = %v, want one function %q", fns, "text")
	}

	// The branch target became a synthetic label and the branch was
	// retargeted to it.
	if u.FindLabel(".Lmaodec_2") == nil {
		t.Error("no .Lmaodec_2 label for the branch target at offset 2")
	}
	var branch *ir.Node
	for _, n := range fns[0].Instructions() {
		if sym, ok := n.Inst.BranchTarget(); ok {
			if sym != ".Lmaodec_2" {
				t.Errorf("branch targets %q, want .Lmaodec_2", sym)
			}
			branch = n
		}
	}
	if branch == nil {
		t.Fatal("no direct branch in the lifted unit")
	}

	// Byte-range provenance: the branch was decoded at offset 4.
	if branch.Prov == nil || branch.Prov.Origin.String() != "MAODEC[4]" {
		t.Errorf("branch provenance = %v, want MAODEC[4]", branch.Prov)
	}

	// One KindDecode span with the buffer's stats.
	var span *trace.Span
	for _, s := range tr.Spans() {
		if s.Kind == trace.KindDecode {
			s := s
			span = &s
		}
	}
	if span == nil {
		t.Fatal("no KindDecode span collected")
	}
	if span.Stats["bytes"] != len(code) || span.Stats["instructions"] != 4 ||
		span.Stats["branch_labels"] != 1 {
		t.Errorf("span stats = %v", span.Stats)
	}

	// Relaxation closes the roundtrip: the lifted unit re-encodes to
	// the original bytes.
	layout, err := relax.Relax(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if img, err := layout.Image(u, ".text"); err != nil || string(img) != string(code) {
		t.Errorf("re-encoded image %x (%v), want %x", img, err, code)
	}
}

// TestToUnitBase: the load address shapes the synthetic label names.
func TestToUnitBase(t *testing.T) {
	u, err := ToUnit(mustHex(t, countdownHex), UnitOptions{Base: 0x401000})
	if err != nil {
		t.Fatal(err)
	}
	if u.FindLabel(".Lmaodec_401002") == nil {
		t.Errorf("no .Lmaodec_401002 label; unit:\n%s", u.String())
	}
}

// TestToUnitEndLabel: a call with a zero rel32 (the encoder's
// unresolved-symbol placeholder) targets the end of the buffer, which
// must lift to a label after the last instruction.
func TestToUnitEndLabel(t *testing.T) {
	// 0: call +0 (target 5); 5: (end)
	u, err := ToUnit(mustHex(t, "e800000000"), UnitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if u.FindLabel(".Lmaodec_5") == nil {
		t.Errorf("no end-of-buffer label; unit:\n%s", u.String())
	}
	layout, err := relax.Relax(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if img, err := layout.Image(u, ".text"); err != nil || string(img) != string(mustHex(t, "e800000000")) {
		t.Errorf("re-encoded image %x (%v)", img, err)
	}
}

// TestToUnitBadTarget: branches into the middle of an instruction or
// outside the buffer are structured errors naming the branch's offset.
func TestToUnitBadTarget(t *testing.T) {
	cases := []struct {
		name string
		hex  string
		want string
	}{
		// 0: jmp 3 — but 3 is inside the movl at 2.
		{"mid-instruction", "eb0131c0c3", "not an instruction boundary"},
		// 0: jmp -3 — before the buffer.
		{"before buffer", "ebfbc3", "outside the buffer"},
		// 0: jmp 9 — past the end.
		{"past end", "eb07c3", "outside the buffer"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ToUnit(mustHex(t, c.hex), UnitOptions{})
			var derr *Error
			if !errors.As(err, &derr) {
				t.Fatalf("error is %T (%v), want *decode.Error", err, err)
			}
			if derr.Offset != 0 {
				t.Errorf("offset %d, want 0 (the branch)", derr.Offset)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err, c.want)
			}
		})
	}
}
