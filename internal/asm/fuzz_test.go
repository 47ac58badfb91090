package asm

import (
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeeds are the hand seeds of FuzzParseString, poking at parser
// corners: prefixes, jump tables, quoted symbols, broken operands,
// CRLF, stray bytes, escapes in strings and empty memory references.
// The differential tests parse them too.
var fuzzSeeds = []string{
	"",
	"\t.text\nf:\n\tret\n",
	"\tlock addl $1, (%rax)\n",
	"\tmovq 24(%rsp,%rbx,8), %rdx\n",
	"\t.section .rodata\n\t.quad .L1-.L0\n",
	"\tjmp *.LJT(,%rax,8)\n",
	"a: b: c:\n",
	"\t.byte 0x90\r\n\trep movsb\n",
	"\tmovl $'x, %eax\n",
	"\t.ascii \"unterminated",
	"\tfld %st(1)\n\tnopw %cs:0(%rax,%rax)\n",
	"\t.ascii \"a\\\\\" ; nop\n\t.ascii \"b\\\"\" # c\n",
	"\tjA ()\n\tmovl 5(,), %eax\n",
}

// FuzzParseString fuzzes the assembly parser, seeded with the corpus
// fixtures. Invariants under arbitrary input:
//
//  1. ParseString never panics — it returns an error for anything it
//     cannot represent.
//  2. It agrees with the reference parser (reference_test.go): the same
//     nodes, or the same error.
//  3. What it does accept round-trips: the printed form reparses, and
//     printing again is a fixpoint (parser and printer are exact
//     inverses over everything the printer produces — the property the
//     assembly-to-assembly design rests on).
func FuzzParseString(f *testing.F) {
	fixtures, err := filepath.Glob(filepath.Join("..", "corpus", "testdata", "*.s"))
	if err != nil || len(fixtures) == 0 {
		f.Fatalf("no corpus fixtures: %v", err)
	}
	for _, fx := range fixtures {
		b, err := os.ReadFile(fx)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(b))
	}
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, src string) {
		u, err := ParseString("fuzz.s", src)
		ru, rerr := refParseString("fuzz.s", src)
		if msg := diffUnits(u, err, ru, rerr); msg != "" {
			t.Fatalf("ParseString differs from the reference parser: %s", msg)
		}
		if err != nil {
			return // rejected input is fine; panicking is not
		}
		emit1 := u.String()
		u2, err := ParseString("fuzz2.s", emit1)
		if err != nil {
			t.Fatalf("own output does not reparse: %v\n--- emitted ---\n%s", err, emit1)
		}
		if emit2 := u2.String(); emit2 != emit1 {
			t.Fatalf("print/reparse/print not a fixpoint\n--- first ---\n%s--- second ---\n%s", emit1, emit2)
		}
	})
}
