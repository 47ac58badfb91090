package x86

import (
	"math/rand/v2"
	"strings"
	"testing"
	"unsafe"
)

// referenceParseMnemonic is the rule-by-rule AT&T mnemonic decoder the
// precomputed table replaced, kept as the oracle TestMnemonicTable
// checks the table against: it tries each family in precedence order
// and rejects a spelling that starts like a conditional or a movz/movs
// but does not complete the pattern.
func referenceParseMnemonic(m string) (Mnem, bool) {
	m = strings.ToLower(m)

	if m == "movsd" {
		return Mnem{Op: OpMOVSD}, true
	}
	if op, ok := fixedMnemonics[m]; ok {
		return Mnem{Op: op}, true
	}

	for stem, op := range cvtStems {
		if m == stem {
			return Mnem{Op: op}, true
		}
		if len(m) == len(stem)+1 && strings.HasPrefix(m, stem) {
			if w, ok := suffixWidth[m[len(stem)]]; ok {
				return Mnem{Op: op, Width: w}, true
			}
		}
	}

	if rest, ok := strings.CutPrefix(m, "cmov"); ok {
		if c, tail, ok := cutCond(rest); ok {
			mn := Mnem{Op: OpCMOV, Cond: c}
			if tail == "" {
				return mn, true
			}
			if len(tail) == 1 {
				if w, ok := suffixWidth[tail[0]]; ok {
					mn.Width = w
					return mn, true
				}
			}
		}
		return Mnem{}, false
	}
	if rest, ok := strings.CutPrefix(m, "set"); ok {
		if c, tail, ok := cutCond(rest); ok && tail == "" {
			return Mnem{Op: OpSET, Cond: c, Width: W8}, true
		}
		return Mnem{}, false
	}
	if rest, ok := strings.CutPrefix(m, "j"); ok && m != "jmp" && m != "jmpq" {
		if c, tail, ok := cutCond(rest); ok && tail == "" {
			return Mnem{Op: OpJCC, Cond: c}, true
		}
		return Mnem{}, false
	}

	if len(m) == 6 && (strings.HasPrefix(m, "movz") || strings.HasPrefix(m, "movs")) {
		src, okS := suffixWidth[m[4]]
		dst, okD := suffixWidth[m[5]]
		if okS && okD && src < dst {
			op := OpMOVZX
			if m[3] == 's' {
				op = OpMOVSX
			}
			if op == OpMOVZX && src == W32 {
				return Mnem{}, false
			}
			return Mnem{Op: op, Width: dst, SrcWidth: src}, true
		}
		return Mnem{}, false
	}

	if len(m) >= 2 {
		if w, ok := suffixWidth[m[len(m)-1]]; ok {
			if op, ok := suffixedBases[m[:len(m)-1]]; ok {
				return Mnem{Op: op, Width: w}, true
			}
		}
	}
	if op, ok := suffixedBases[m]; ok {
		return Mnem{Op: op}, true
	}
	return Mnem{}, false
}

// TestMnemonicTable checks the one-lookup table against the
// rule-by-rule decoder on every spelling either could accept — each
// family's stems and conditions crossed with every suffix letter and a
// few that are not — in lower, upper and mixed case, and on random
// strings over the letters mnemonics use.
func TestMnemonicTable(t *testing.T) {
	tails := []string{"", "b", "w", "l", "q", "x", "e", "bl", "qq"}
	var spellings []string
	add := func(stem string) {
		for _, tail := range tails {
			spellings = append(spellings, stem+tail)
		}
	}
	for m := range mnemonics {
		spellings = append(spellings, m)
	}
	for stem := range suffixedBases {
		add(stem)
	}
	for stem := range fixedMnemonics {
		add(stem)
	}
	for stem := range cvtStems {
		add(stem)
	}
	for alias := range condAliases {
		for _, fam := range []string{"cmov", "set", "j"} {
			add(fam + alias)
		}
	}
	for _, fam := range []string{"cmov", "set", "j", "movz", "movs"} {
		add(fam)
	}
	letters := []string{"b", "w", "l", "q", "x", "d"}
	for _, s := range letters {
		for _, d := range letters {
			spellings = append(spellings, "movz"+s+d, "movs"+s+d)
		}
	}
	rng := rand.New(rand.NewPCG(1, 2))
	const alphabet = "abcdeglmnopqstvwxyz2"
	for range 200000 {
		b := make([]byte, 1+rng.IntN(10))
		for i := range b {
			b[i] = alphabet[rng.IntN(len(alphabet))]
		}
		spellings = append(spellings, string(b))
	}

	accepted := 0
	for _, s := range spellings {
		for _, v := range []string{s, strings.ToUpper(s), mixedCase(rng, s)} {
			got, gotOK := ParseMnemonic(v)
			want, wantOK := referenceParseMnemonic(v)
			if got != want || gotOK != wantOK {
				t.Fatalf("ParseMnemonic(%q) = %+v, %v; reference %+v, %v", v, got, gotOK, want, wantOK)
			}
			if gotOK {
				accepted++
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no spelling accepted")
	}
}

func mixedCase(rng *rand.Rand, s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'a' && c <= 'z' && rng.IntN(2) == 0 {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}

// TestOperandSize pins Operand's packed layout: the parser's slabs,
// Unit.Clone and every operand copy are sized by it.
func TestOperandSize(t *testing.T) {
	if got := unsafe.Sizeof(Operand{}); got != 72 {
		t.Fatalf("unsafe.Sizeof(Operand{}) = %d, want 72", got)
	}
}

func BenchmarkParseMnemonic(b *testing.B) {
	words := []string{"addq", "movl", "jne", "movzbl", "cmovle", "ret", "leaq", "cvtsi2sdq"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := ParseMnemonic(words[i%len(words)]); !ok {
			b.Fatal("rejected")
		}
	}
}
