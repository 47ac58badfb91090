package relax_test

// Relaxation against the assembler it substitutes for. When as and nm
// are installed, every corpus fixture and template is assembled by GNU
// as, raw and after two pipelines, and every .text symbol's address and
// the .text size must equal the layout's. Emitted bytes still differ by
// design (padding is 0x90 runs, relocated fields are resolved), so only
// addresses and sizes are compared. The test skips on machines without
// binutils, like the encoder's gas cross-validation.

import (
	"bufio"
	"bytes"
	"debug/elf"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mao/internal/corpus"
	"mao/internal/pass"
	"mao/internal/relax"
)

func TestLayoutMatchesGas(t *testing.T) {
	asPath, err1 := exec.LookPath("as")
	nmPath, err2 := exec.LookPath("nm")
	if err1 != nil || err2 != nil {
		t.Skip("binutils not installed; skipping the layout check against GNU as")
	}
	srcs := map[string]string{}
	fixtures, err := filepath.Glob("../corpus/testdata/*.s")
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no corpus fixtures: %v", err)
	}
	for _, path := range fixtures {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(path)] = string(b)
	}
	for _, w := range append(corpus.Spec2000Int(0.1), corpus.Spec2006Subset(0.1)...) {
		srcs[w.Name+".s"] = corpus.Generate(w)
	}

	dir := t.TempDir()
	checked := 0
	for name, src := range srcs {
		for _, spec := range []string{"", "REDZEXT:REDTEST:REDMOV:ADDADD:SCHED:LOOP16", "LOOP16:LSD:BRALIGN"} {
			tag := name + " " + spec
			u := mustParse(t, name, src)
			if spec != "" {
				mgr, err := pass.NewManager(spec)
				if err != nil {
					t.Fatal(err)
				}
				mgr.Workers = 1
				if _, err := mgr.Run(u); err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
			}
			layout, err := relax.Relax(u, nil)
			if err != nil {
				t.Fatalf("%s: relax: %v", tag, err)
			}
			asmPath, obj := filepath.Join(dir, "u.s"), filepath.Join(dir, "u.o")
			if err := os.WriteFile(asmPath, []byte(u.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			if out, err := exec.Command(asPath, "--64", "-L", "-o", obj, asmPath).CombinedOutput(); err != nil {
				t.Fatalf("%s: as: %v\n%s", tag, err, out)
			}
			out, err := exec.Command(nmPath, "-f", "sysv", obj).Output()
			if err != nil {
				t.Fatalf("%s: nm: %v", tag, err)
			}
			syms := 0
			sc := bufio.NewScanner(bytes.NewReader(out))
			for sc.Scan() {
				// name | value | class | type | size | line | section
				f := strings.Split(sc.Text(), "|")
				if len(f) != 7 || strings.TrimSpace(f[6]) != ".text" {
					continue
				}
				sym := strings.TrimSpace(f[0])
				addr, err := strconv.ParseInt(strings.TrimSpace(f[1]), 16, 64)
				if err != nil {
					t.Fatalf("%s: nm line %q: %v", tag, sc.Text(), err)
				}
				syms++
				if got, ok := layout.SymAddr(sym); !ok || got != addr {
					t.Errorf("%s: %s at %#x in the layout (known %v), GNU as puts it at %#x", tag, sym, got, ok, addr)
				}
			}
			if syms == 0 {
				t.Errorf("%s: GNU as reports no .text symbols", tag)
			}
			checked += syms
			ef, err := elf.Open(obj)
			if err != nil {
				t.Fatal(err)
			}
			size := int64(-1)
			if text := ef.Section(".text"); text != nil {
				size = int64(text.Size)
			}
			ef.Close()
			if size != layout.SectionEnd[".text"] {
				t.Errorf("%s: .text is %d bytes in the layout, %d in GNU as's object", tag, layout.SectionEnd[".text"], size)
			}
		}
	}
	t.Logf("%d units, 3 variants each: %d .text symbol addresses checked", len(srcs), checked)
}
