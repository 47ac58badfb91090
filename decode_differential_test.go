package mao_test

import (
	"strings"
	"testing"

	"mao"
	"mao/internal/pass"
	"mao/internal/verify"
	"mao/internal/x86/decode"
)

// differentialSpecs are the pass pipelines the parse-side/decode-side
// differential runs under. Three passes are deliberately absent, each
// for a structural reason rather than a bug:
//
//   - DCE and NOPKILL: the decoded IR represents inter-block padding
//     as concrete NOP instructions in unlabeled (hence unreachable)
//     positions, which those passes legitimately delete — the
//     parse-side unit keeps the padding as alignment directives
//     instead, so byte identity cannot hold by design.
//   - SCHED: the parse side retains every source label, including
//     unreferenced ones, and labels are scheduling barriers; the
//     decoded unit has labels only at branch targets, so SCHED finds
//     different (equally valid) instruction orders.
//
// TestDecodedExcludedPasses pins those three to "certified sound,
// never grows the image" on decoded units instead.
var differentialSpecs = []string{
	"",
	"REDTEST",
	"REDMOV",
	"REDZEXT",
	"ADDADD",
	"CONSTFOLD",
	"REDZEXT:REDTEST:REDMOV:ADDADD:CONSTFOLD",
}

// selfContained reports whether every direct branch in the unit
// targets a label defined in the unit. A fixture with an unresolved
// target (e.g. cmd/mao/testdata/check/bad.s's jne .Lmissing) cannot
// hold byte identity: the parse side emits the forced long form with a
// zero placeholder, while the decoded unit sees a concrete nearby
// target and legitimately relaxes the branch short.
func selfContained(u *mao.Unit) bool {
	for _, f := range u.Functions() {
		for _, n := range f.Instructions() {
			if sym, ok := n.Inst.BranchTarget(); ok && u.FindLabel(sym) == nil {
				return false
			}
		}
	}
	return true
}

// runSpec parses/optimizes the unit under spec and returns the .text
// image. hook (optional) certifies every invocation.
func runSpec(t *testing.T, u *mao.Unit, spec string, workers int, hook pass.Hook) []byte {
	t.Helper()
	mgr, err := pass.NewManager(spec)
	if err != nil {
		t.Fatal(err)
	}
	mgr.Workers = workers
	mgr.Hook = hook
	if _, err := mgr.Run(u); err != nil {
		t.Fatal(err)
	}
	if err := u.Analyze(); err != nil {
		t.Fatal(err)
	}
	layout, err := mao.Relax(u)
	if err != nil {
		t.Fatal(err)
	}
	img, err := layout.Image(u, ".text")
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestDecodeDifferential pins the binary front end against the parser
// front end: for every corpus fixture and every pass spec, the
// parse-side pipeline's .text image, decoded back to IR and pushed
// through the same spec again, must re-emit the identical bytes — at
// workers 1 and 8 — and MAOVERIFY must certify every decoded-pipeline
// invocation clean. (Specs are first checked to be idempotent on the
// parse side; a spec that keeps transforming its own output cannot be
// compared this way and would be a bug of its own.)
func TestDecodeDifferential(t *testing.T) {
	for _, path := range roundtripSources(t) {
		for _, spec := range differentialSpecs {
			name := path + "/" + spec
			if spec == "" {
				name = path + "/none"
			}
			t.Run(name, func(t *testing.T) {
				u1, err := mao.ParseFile(path)
				if err != nil {
					t.Fatalf("parse: %v", err)
				}
				if !selfContained(u1) {
					t.Skip("fixture branches to symbols it does not define")
				}
				ref := runSpec(t, u1, spec, 1, nil)
				if len(ref) == 0 {
					t.Skip("fixture has no .text bytes")
				}

				// Idempotence guard: the spec applied to its own output
				// must be a fixpoint, or the decode-side comparison
				// below compares apples to oranges.
				again := runSpec(t, u1, spec, 1, nil)
				if string(again) != string(ref) {
					t.Fatalf("spec %q is not idempotent on the parse side", spec)
				}

				for _, workers := range []int{1, 8} {
					ud, err := mao.DecodeBinary(path+".bin", ref, 0, nil)
					if err != nil {
						t.Fatalf("decode of parse-side image: %v", err)
					}
					cert := &verify.Certifier{}
					out := runSpec(t, ud, spec, workers, cert)
					if string(out) != string(ref) {
						t.Errorf("workers=%d: decoded pipeline image differs (%d vs %d bytes)",
							workers, len(out), len(ref))
					}
					for _, v := range cert.Violations {
						t.Errorf("workers=%d: MAOVERIFY violation: %v", workers, v)
					}
				}
			})
		}
	}
}

// TestDecodedExcludedPasses: the passes excluded from the byte-identity
// differential still run soundly on decoded units — NOPKILL/DCE delete
// the lifted padding NOPs, SCHED reorders within the decoded blocks,
// MAOVERIFY certifies every invocation, and the re-encoded image never
// grows.
func TestDecodedExcludedPasses(t *testing.T) {
	for _, path := range roundtripSources(t) {
		t.Run(path, func(t *testing.T) {
			u1, err := mao.ParseFile(path)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			ref := runSpec(t, u1, "", 1, nil)
			if len(ref) == 0 {
				t.Skip("fixture has no .text bytes")
			}
			ud, err := mao.DecodeBinary(path+".bin", ref, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			cert := &verify.Certifier{}
			out := runSpec(t, ud, "NOPKILL:DCE:SCHED", 1, cert)
			if len(out) > len(ref) {
				t.Errorf("NOPKILL:DCE:SCHED grew the image: %d -> %d bytes", len(ref), len(out))
			}
			for _, v := range cert.Violations {
				t.Errorf("MAOVERIFY violation: %v", v)
			}
		})
	}
}

// TestDecodeProvenanceSurvivesPipeline: nodes untouched by passes keep
// their MAODEC[offset] byte-range provenance through a full pipeline,
// so `mao -binary --explain` can attribute optimized instructions to
// input byte ranges.
func TestDecodeProvenanceSurvivesPipeline(t *testing.T) {
	u1, err := mao.ParseFile("internal/corpus/testdata/wl_164_gzip.s")
	if err != nil {
		t.Fatal(err)
	}
	ref := runSpec(t, u1, "", 1, nil)
	ud, err := mao.DecodeBinary("gzip.bin", ref, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mao.RunPipelineParallel(ud, "REDTEST:REDMOV", mao.Options{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, lin := range mao.Explain(ud) {
		if strings.HasPrefix(lin.Origin, decode.LiftPass+"[") {
			found = true
			break
		}
	}
	if !found {
		t.Error("no instruction retained MAODEC provenance after the pipeline")
	}
}
