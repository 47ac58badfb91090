package encode

import (
	"os"
	"path/filepath"
	"testing"

	"mao/internal/asm"
	"mao/internal/ir"
)

// TestLengthNoAllocs: sizing an instruction allocates nothing, with or
// without a resolver, for every instruction of the corpus fixtures,
// and agrees with the length of its encoding.
func TestLengthNoAllocs(t *testing.T) {
	fixtures, err := filepath.Glob(filepath.Join("..", "..", "corpus", "testdata", "*.s"))
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no corpus fixtures: %v", err)
	}
	resolved := &Ctx{Addr: 0x1000, SymAddr: func(string) (int64, bool) { return 0x2000, true }}
	checked := 0
	for _, path := range fixtures {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		u, err := asm.ParseString(path, string(src))
		if err != nil {
			t.Fatal(err)
		}
		for n := u.List.Front(); n != nil; n = n.Next() {
			if n.Kind != ir.NodeInst {
				continue
			}
			for _, ctx := range []*Ctx{nil, resolved} {
				b, err := Encode(n.Inst, ctx)
				if err != nil {
					t.Fatalf("%s: %v", n.Inst, err)
				}
				var size int
				allocs := testing.AllocsPerRun(5, func() { size, _ = Length(n.Inst, ctx) })
				if allocs != 0 || size != len(b) {
					t.Fatalf("Length(%s) = %d with %.0f allocations; want %d with none",
						n.Inst, size, allocs, len(b))
				}
			}
			checked++
		}
	}
	t.Logf("%d instructions sized", checked)
}
