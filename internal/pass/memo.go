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

// Effectful marks passes whose invocation has effects outside the
// unit's IR — file emission (ASM), diagnostic output (CHECK). Their
// presence in a pipeline disables memoization of the run: skipping
// the pipeline would skip the effect.
type Effectful interface {
	Effectful() bool
}

func isEffectful(p Pass) bool {
	e, ok := p.(Effectful)
	return ok && e.Effectful()
}

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
	enabled   bool   // no effectful passes, no dump options
	local     bool   // every pass is a ParallelSafe FuncPass
}

// memoConfig resolves (and caches) whether this pipeline is
// memoizable and in which key mode.
func (m *Manager) memoConfig() (signature string, local, enabled bool) {
	m.memoState.once.Do(func() {
		st := &m.memoState
		st.enabled = true
		st.local = true
		var sig strings.Builder
		for i, inv := range m.Pipeline {
			if isEffectful(inv.Pass) {
				st.enabled = false
				return
			}
			if _, ok := inv.Opts.m["dump_before"]; ok {
				st.enabled = false
				return
			}
			if _, ok := inv.Opts.m["dump_after"]; ok {
				st.enabled = false
				return
			}
			switch inv.Pass.(type) {
			case UnitPass:
				st.local = false
			case FuncPass:
				if !isParallelSafe(inv.Pass) {
					st.local = false
				}
			default:
				st.enabled = false
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
		st.signature = sig.String()
	})
	return m.memoState.signature, m.memoState.local, m.memoState.enabled
}

// memoPlan fingerprints u for this pipeline, or returns nil when the
// run is not memoizable (effectful passes, dump options, hooks, or a
// unit with no functions).
func (m *Manager) memoPlan(u *ir.Unit) *memo.Plan {
	sig, local, enabled := m.memoConfig()
	if !enabled {
		return nil
	}
	return m.Memo.NewPlan(u, sig, local)
}
