package pass

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"

	"mao/internal/ir"
	"mao/internal/memo"
)

// This file wires the content-addressed pipeline memo (internal/memo)
// into the manager. A memoized manager fingerprints the unit's
// functions before running; when every function hits, the pipeline is
// skipped and the memoized optimized spans are spliced in, re-parsed
// from their stored text — byte-identical to a cold run, which the
// differential suites pin across corpus × specs × worker counts.
//
// Only function-local pipelines are memoized: every invocation a
// ParallelSafe FuncPass with no dump option. Such a pass's output for
// a function depends on that function's span alone, so the span keys
// its entry, and a hit that skips it skips nothing but IR edits
// (DESIGN.md §8.1). A unit pass (ASM, CHECK, LOOP16) or a serial
// FuncPass (LSD, BRALIGN) reads the whole unit or acts outside it, so
// any pipeline holding one runs with no plan, lookup or fill.

// CatalogVersion returns a fingerprint of the registered pass
// catalog. It changes whenever the set of registered passes does, so
// memo keys composed with it can never resurrect results produced by
// a different catalog. (Semantic changes to a pass's implementation
// are covered by the memo package's format version, bumped on
// incompatible changes.)
func CatalogVersion() string {
	h := sha256.New()
	for _, n := range Names() {
		fmt.Fprintf(h, "pass:%d:%s", len(n), n)
	}
	return "catalog/" + hex.EncodeToString(h.Sum(nil))
}

// memoState is the manager's lazily computed memoization config.
type memoState struct {
	once      sync.Once
	signature string // canonical pipeline spec baked into keys
	enabled   bool   // every invocation is memoizable
}

// memoizable reports whether a memo hit may stand in for inv: a
// ParallelSafe FuncPass (not dispatched as a UnitPass) without the
// dump_before or dump_after option.
func memoizable(inv Invocation) bool {
	if _, unit := inv.Pass.(UnitPass); unit {
		return false
	}
	if _, fn := inv.Pass.(FuncPass); !fn || !isParallelSafe(inv.Pass) {
		return false
	}
	_, before := inv.Opts.m["dump_before"]
	_, after := inv.Opts.m["dump_after"]
	return !before && !after
}

// memoConfig resolves (and caches) whether this pipeline is memoizable
// and its canonical spec.
func (m *Manager) memoConfig() (signature string, enabled bool) {
	m.memoState.once.Do(func() {
		var sig strings.Builder
		for i, inv := range m.Pipeline {
			if !memoizable(inv) {
				return
			}
			if i > 0 {
				sig.WriteByte(':')
			}
			sig.WriteString(inv.Pass.Name())
			keys := make([]string, 0, len(inv.Opts.m))
			for k := range inv.Opts.m {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for j, k := range keys {
				if j == 0 {
					sig.WriteByte('=')
				} else {
					sig.WriteByte(',')
				}
				fmt.Fprintf(&sig, "%s[%s]", k, inv.Opts.m[k])
			}
		}
		m.memoState.signature = sig.String()
		m.memoState.enabled = true
	})
	return m.memoState.signature, m.memoState.enabled
}

// memoPlan fingerprints u for this pipeline, or returns nil when the
// run is not memoizable (a pass that is not function-local, a dump
// option, or a unit with no functions).
func (m *Manager) memoPlan(u *ir.Unit) *memo.Plan {
	sig, enabled := m.memoConfig()
	if !enabled {
		return nil
	}
	return m.Memo.NewPlan(u, sig, true)
}
