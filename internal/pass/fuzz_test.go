package pass_test

import (
	"slices"
	"testing"

	"mao/internal/pass"
	_ "mao/internal/passes"
)

// FuzzParsePipeline feeds ParsePipeline arbitrary specs, which maod
// accepts over HTTP. It must never panic, and every invocation of an
// accepted spec must name a registered pass.
func FuzzParsePipeline(f *testing.F) {
	for _, s := range []string{
		// The benchmark's layout and local specs.
		"REDZEXT:REDTEST:REDMOV:ADDADD:SCHED:LOOP16",
		"REDZEXT:REDTEST:REDMOV:ADDADD:SCHED",
		// Specs the repository's tests use.
		"",
		":",
		"NOPIN",
		"NOPIN:REDZEXT:REDTEST:REDMOV:ADDADD",
		"LSD:BRALIGN",
		"REDTEST:REDMOV:ASM=o[/tmp/out.s]",
		"REDTEST:NOPKILL:LOOP16",
		"SCHED=costfn[ports]",
		"LFIND=trace[2]",
		"CHECK=fatal",
		"TESTA=o[x]:TESTB:TESTA=o[y],trace[2]",
		"TESTA=trace[3],flag,count[42],b[false]",
		"TESTC=bad[unterminated",
		"TESTDUMP=dump_before[a:b],dump_after[c]",
		"NOSUCHPASS",
		"redtest=,,trace[[1]]",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		invs, err := pass.ParsePipeline(spec)
		if err != nil {
			return
		}
		names := pass.Names()
		for _, inv := range invs {
			if inv.Pass == nil || inv.Opts == nil {
				t.Fatalf("%q: invocation without a pass or options", spec)
			}
			if name := inv.Pass.Name(); !slices.Contains(names, name) || pass.Lookup(name) == nil {
				t.Fatalf("%q: invocation names unregistered pass %q", spec, name)
			}
		}
	})
}
