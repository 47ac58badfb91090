package asm

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"mao/internal/corpus"
	"mao/internal/ir"
	"mao/internal/x86"
)

// handCases are statements the corpus does not exercise: labels on
// instruction lines, ';' statements, Intel-syntax blocks, lock, CRLF,
// letter case, every operand form, escapes in strings, and operand and
// argument lists longer than the parser's scratch.
var handCases = []string{
	"f: movl %eax, %ebx\n.L1: .L2: nop; ret\n",
	"nop ; nop;nop\n\n# only a comment\n   \n\u00a0nop\u00a0\n",
	"\t.text\n\t.intel_syntax noprefix\n\tmov eax, dword ptr [rbx+rcx*4+8]\n\tlea rax, [rip+sym]\n" +
		"\tmovzx ecx, byte ptr [rax]\n\tmovsx rdx, word ptr [rsi-2]\n\tadd rsp, 8\n\tjmp .L1\n\tcall foo\n" +
		"\tmov qword ptr [rax+4*rbx], 0x10\n\tMOV EAX, 5\n\t.att_syntax\n\tmovl %eax, %ebx\n",
	"lock addl $1, (%rax)\nLOCK incq 8(%rdi)\nlock\txchgl %eax, (%rbx)\n",
	"\t.text\r\nf:\r\n\tmovl $1, %eax\r\n\tret\r\n",
	"MOVL %EAX, %EBX\nJNE .L1\nCmovLEq %rax, %rbx\n",
	"movl $0x10, %eax\nmovl $-8, %eax\nmovl $+3, %eax\nmovl $0b101, %eax\nmovl $017, %eax\n" +
		"movl $1_000, %eax\nmovl $sym, %eax\nmovl $sym+4, %eax\nmovl $sym-4, %eax\nmovl $ 5, %eax\n" +
		"movq $0xffffffffffffffff, %rax\nmovl $'x, %eax\n",
	"movl sym(%rip), %eax\nmovl -8(%rbp), %eax\nleal (%rax,%rbx), %ecx\nmovq .LJT(,%rax,8), %rdx\n" +
		"movl sym+4(,%rax,2), %eax\nmovl ( %rax , %rbx , 4 ), %eax\nmovl 0x10, %eax\nmovl sym+8, %eax\n" +
		"movl (%rax,%rbx,), %eax\nmovl (%rax,), %eax\n",
	"jmp *%rax\ncall *(%rax)\njmp *sym\njmp * %rax\ncall **%rax\ncall printf\njmp .L1+4\n",
	"\t.p2align 4,,15\n\t.string \"a,b\"\n\t.section .rodata,\"a\",@progbits\n\t.quad .L1-.L0\n" +
		"\t.byte 1, 2, 3\n\t.cfi_startproc\n\t.set x, (1+2)\n\t.globl main\n\t.long f(1,2), 3\n",
	"\t.ascii \"a\\\\\" ; nop\n\t.ascii \"a\\\\\"  # c\n\t.ascii \"q\\\"x\" ; nop\n\t.ascii \"a\\\"b#c\"\n" +
		"\t.ascii \"x\\\\\\\\\" , \"y\" ; ret\n\t.ascii \"trailing\\",
	"movq %xmm0, %rax\nmov %xmm0, %xmm1\ncvtsi2sdq %rax, %xmm0\nmovsd (%rax), %xmm2\nmovd %eax, %xmm3\n",
	"imul $3, %eax, %ebx, %ecx, %edx, %esi\n",
	"\t.byte " + strings.Repeat("1,", 40) + "2\n",
	"movl (%rax, %rbx) , %eax ; a: b: ret # tail ; nop\n",
	"\t.\" # x, y\n\t.ascii\"q #, r\n",
	"\tmovl\" #, %eax\n",
}

// errorCases reach every error the parser reports, each on line 3.
var errorCases = []string{
	"frobnicate %eax",
	"FROB %eax",
	"lock",
	"lock   ",
	"lock lock addl $1, (%rax)",
	"addl %eax,",
	"addl , %eax",
	"mov $zz+, %eax",
	"movl $ sym, %eax",
	"movl $1x, %eax",
	"movl $, %eax",
	"mov %nosuch, %eax",
	"mov % rax, %eax",
	"jmp 5",
	"movl 5x, %eax",
	"movl sym*2, %eax",
	"movl -, %eax",
	"movl 5x(%rax), %eax",
	"movl sym+(%rax), %eax",
	"movl 4(%rax, %eax",
	"movl (%rsp,%rbx,8,9), %eax",
	"movl (rax), %eax",
	"movl (%rzz), %eax",
	"movl 4(%rsp,%rbx,3), %eax",
	"movl (%rsp,%rbx,x), %eax",
	"jA ()",
	"movl 5(,), %eax",
	"movl (,,4), %eax",
	"call *()",
	"movl sym(), %eax",
	".intel_syntax noprefix\nfrob eax",
	".intel_syntax noprefix\nmov eax, [rax",
	".intel_syntax noprefix\nmov eax, [rax+ +rbx]",
	".intel_syntax noprefix\nmov eax, [rax*3]",
	".intel_syntax noprefix\nmov eax, [zz*4]",
	".intel_syntax noprefix\nmov eax, [rax*4+rbx*2]",
	".intel_syntax noprefix\nmov eax, [rax+rbx+rcx]",
	".intel_syntax noprefix\nmov eax, [1x]",
	".intel_syntax noprefix\nmov eax, [a+b]",
	".intel_syntax noprefix\njmp 5",
	".intel_syntax noprefix\nmov eax, 5x",
}

// duplicateLabel fails in the unit's analysis, not in the parser.
const duplicateLabel = "a:\nnop\na:\n"

// differentialSources returns every source the differential runs: the
// corpus fixtures, the corpus templates at three scales, the fuzz seeds
// (hand and committed), the hand cases and the error cases.
func differentialSources(t *testing.T) map[string]string {
	t.Helper()
	srcs := map[string]string{}
	fixtures, err := filepath.Glob(filepath.Join("..", "corpus", "testdata", "*.s"))
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no corpus fixtures: %v", err)
	}
	fixtures = append(fixtures, filepath.Join("..", "..", "cmd", "mao", "testdata", "check", "bad.s"))
	for _, fx := range fixtures {
		b, err := os.ReadFile(fx)
		if err != nil {
			t.Fatal(err)
		}
		srcs[fx] = string(b)
	}
	for _, scale := range []float64{0.1, 0.25, 0.4} {
		wls := append(corpus.Spec2000Int(scale), corpus.Spec2006Subset(scale)...)
		if len(wls) != 19 {
			t.Fatalf("%d templates, want 19", len(wls))
		}
		for _, w := range wls {
			srcs[fmt.Sprintf("%s@%g", w.Name, scale)] = corpus.Generate(w)
		}
	}
	for i, s := range fuzzSeeds {
		srcs[fmt.Sprintf("fuzz seed %d", i)] = s
	}
	committed, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzParseString", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range committed {
		srcs[path] = readFuzzString(t, path)
	}
	for i, s := range handCases {
		srcs[fmt.Sprintf("hand case %d", i)] = s
	}
	for i, s := range errorCases {
		srcs[fmt.Sprintf("error case %d", i)] = "\t.text\nf:\n" + s + "\n"
	}
	srcs["duplicate label"] = duplicateLabel
	return srcs
}

// readFuzzString reads a committed one-string fuzz input.
func readFuzzString(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
		!strings.HasPrefix(lines[1], "string(") || !strings.HasSuffix(lines[1], ")") {
		t.Fatalf("%s: not a one-string fuzz input", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return s
}

// diffErrors compares two parse outcomes' errors; "" means equal.
func diffErrors(err, rerr error) string {
	switch {
	case err == nil && rerr == nil:
		return ""
	case err == nil || rerr == nil:
		return fmt.Sprintf("error %v, reference %v", err, rerr)
	case err.Error() != rerr.Error():
		return fmt.Sprintf("error %q, reference %q", err, rerr)
	}
	pe, ok := err.(*ParseError)
	rpe, rok := rerr.(*ParseError)
	if ok != rok || (ok && *pe != *rpe) {
		return fmt.Sprintf("error %#v, reference %#v", err, rerr)
	}
	return ""
}

// diffNode compares one node with the reference's; "" means equal.
func diffNode(i int, n, r *ir.Node) string {
	switch {
	case n.Kind != r.Kind || n.Label != r.Label || n.Line != r.Line || n.Section != r.Section:
		return fmt.Sprintf("node %d: kind %d label %q line %d section %q, reference kind %d label %q line %d section %q",
			i, n.Kind, n.Label, n.Line, n.Section, r.Kind, r.Label, r.Line, r.Section)
	case !reflect.DeepEqual(n.Dir, r.Dir):
		return fmt.Sprintf("node %d: directive %#v, reference %#v", i, n.Dir, r.Dir)
	case !reflect.DeepEqual(n.Inst, r.Inst):
		return fmt.Sprintf("node %d: instruction %#v, reference %#v", i, n.Inst, r.Inst)
	case n.Prov != nil || r.Prov != nil:
		return fmt.Sprintf("node %d: provenance on a parsed node", i)
	case n.Index() != r.Index():
		return fmt.Sprintf("node %d: index %d, reference %d", i, n.Index(), r.Index())
	}
	return ""
}

// diffUnits compares ParseString's outcome with the reference's.
func diffUnits(u *ir.Unit, err error, ru *ir.Unit, rerr error) string {
	if msg := diffErrors(err, rerr); msg != "" || err != nil {
		return msg
	}
	n, r := u.List.Front(), ru.List.Front()
	for i := 0; n != nil || r != nil; i++ {
		if n == nil || r == nil {
			return fmt.Sprintf("node %d: one list ends early (%v, reference %v)", i, n, r)
		}
		if msg := diffNode(i, n, r); msg != "" {
			return msg
		}
		n, r = n.Next(), r.Next()
	}
	return ""
}

// diffNodeSlices compares ParseNodes' outcome with the reference's.
func diffNodeSlices(nodes []*ir.Node, err error, ref []*ir.Node, rerr error) string {
	if msg := diffErrors(err, rerr); msg != "" || err != nil {
		return msg
	}
	if len(nodes) != len(ref) {
		return fmt.Sprintf("%d nodes, reference %d", len(nodes), len(ref))
	}
	if cap(nodes) != len(nodes) {
		return fmt.Sprintf("capacity %d for %d nodes", cap(nodes), len(nodes))
	}
	for i := range nodes {
		if nodes[i].InList() {
			return fmt.Sprintf("node %d is linked into a list", i)
		}
		if msg := diffNode(i, nodes[i], ref[i]); msg != "" {
			return msg
		}
	}
	return ""
}

// TestParserMatchesReference requires ParseString and ParseNodes to
// build, node for node, what the reference parser builds — kind,
// label, line, section, directive and instruction — or to fail with
// the identical error, on every differential source and on the
// printed form of each (the text memo entries hold).
func TestParserMatchesReference(t *testing.T) {
	for name, src := range differentialSources(t) {
		u, err := ParseString("d.s", src)
		ru, rerr := refParseString("d.s", src)
		if msg := diffUnits(u, err, ru, rerr); msg != "" {
			t.Errorf("%s: ParseString: %s", name, msg)
			continue
		}
		nodes, err := ParseNodes("d.s", src)
		ref, rerr := refParseNodes("d.s", src)
		if msg := diffNodeSlices(nodes, err, ref, rerr); msg != "" {
			t.Errorf("%s: ParseNodes: %s", name, msg)
		}
		if u == nil {
			continue
		}
		printed := u.String()
		nodes, err = ParseNodes("memo", printed)
		ref, rerr = refParseNodes("memo", printed)
		if msg := diffNodeSlices(nodes, err, ref, rerr); msg != "" {
			t.Errorf("%s: ParseNodes of the printed unit: %s", name, msg)
		}
	}
}

// TestStringEscapes: inside a string literal a backslash escapes
// exactly the next byte, so an escaped backslash before the closing
// quote ends the string, and the ';' statement and '#' comment after
// it are seen.
func TestStringEscapes(t *testing.T) {
	u := mustParse(t, "\t.ascii \"a\\\\\" ; nop\n\t.ascii \"b\\\\\"  # c\n\t.ascii \"q\\\"x\" ; ret\n")
	var got []string
	for n := u.List.Front(); n != nil; n = n.Next() {
		got = append(got, n.String())
	}
	want := []string{"\t.ascii\t\"a\\\\\"", "\tnop", "\t.ascii\t\"b\\\\\"", "\t.ascii\t\"q\\\"x\"", "\tret"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("nodes %q, want %q", got, want)
	}
}

// TestEmptyMemoryReference: parentheses naming neither a base nor an
// index register are rejected, since the printed operand (a bare
// displacement, or "0") would read back as something else.
func TestEmptyMemoryReference(t *testing.T) {
	for _, src := range []string{"jA ()", "movl (,), %eax", "movl 5(,), %eax", "movl sym(), %eax", "call *()"} {
		_, err := ParseString("m.s", src)
		if err == nil || !strings.Contains(err.Error(), "no base or index register") {
			t.Errorf("%q: error %v, want one naming the missing register", src, err)
		}
	}
	for _, src := range []string{"movl sym(,%rax,8), %eax", "jmp *(%rax)", "movl (,%rbx), %eax"} {
		if _, err := ParseString("m.s", src); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
}

// TestInstArgsCapped: each instruction's operands are a window of the
// parse's operand slab capped at its length, so appending to one
// instruction's Args never writes into the next one's.
func TestInstArgsCapped(t *testing.T) {
	u := mustParse(t, "addl %eax, %ebx\nsubl %ecx, %edx\n")
	first := u.List.Front().Inst
	second := u.List.Back().Inst
	if cap(first.Args) != len(first.Args) {
		t.Fatalf("cap %d, len %d", cap(first.Args), len(first.Args))
	}
	first.Args = append(first.Args, x86.RegOp(x86.R15))
	if got := second.String(); got != "subl\t%ecx, %edx" {
		t.Errorf("second instruction became %q", got)
	}
}

// TestParseAllocs pins the parser's allocations per node on every
// corpus fixture: a parse allocates per unit (slab chunks, the unit and
// its analysis), not per line, statement or operand.
func TestParseAllocs(t *testing.T) {
	fixtures, err := filepath.Glob(filepath.Join("..", "corpus", "testdata", "*.s"))
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no corpus fixtures: %v", err)
	}
	for _, fx := range fixtures {
		b, err := os.ReadFile(fx)
		if err != nil {
			t.Fatal(err)
		}
		src := string(b)
		u := mustParse(t, src)
		nodes := u.List.Len()
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := ParseString("a.s", src); err != nil {
				t.Fatal(err)
			}
		})
		perNode := allocs / float64(nodes)
		t.Logf("%s: %d nodes, %.0f allocations, %.3f per node", filepath.Base(fx), nodes, allocs, perNode)
		if perNode > 0.5 {
			t.Errorf("%s: %.3f allocations per node, want at most 0.5", filepath.Base(fx), perNode)
		}
	}
}
