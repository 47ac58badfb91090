package memo_test

import (
	"strings"
	"testing"

	"mao/internal/asm"
	_ "mao/internal/check" // register the CHECK pass
	"mao/internal/ir"
	"mao/internal/memo"
	"mao/internal/pass"
	_ "mao/internal/passes" // register the catalog
)

// srcTwo holds two functions; g carries a redundant test after xor
// that REDTEST removes, so local-mode pipelines visibly transform it.
const srcTwo = `	.text
	.globl f
	.type f,@function
f:
	movq %rdi, %rax
	addq $1, %rax
	ret
	.size f, .-f
	.globl g
	.type g,@function
g:
	xorq %rax, %rax
	testq %rax, %rax
	je .Lg1
	nop
.Lg1:
	ret
	.size g, .-g
`

// srcGOnly is g alone, byte-identical to its span in srcTwo.
const srcGOnly = `	.text
	.globl g
	.type g,@function
g:
	xorq %rax, %rax
	testq %rax, %rax
	je .Lg1
	nop
.Lg1:
	ret
	.size g, .-g
`

func parse(t *testing.T, src string) *ir.Unit {
	t.Helper()
	u, err := asm.ParseString("memo_test.s", src)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func newManager(t *testing.T, spec string, m *memo.Memo) *pass.Manager {
	t.Helper()
	mgr, err := pass.NewManager(spec)
	if err != nil {
		t.Fatal(err)
	}
	mgr.Workers = 1
	mgr.Memo = m
	return mgr
}

// TestMemoHitByteIdentity: a fresh parse of the same source must hit
// the memo and come out byte-identical to the cold run.
func TestMemoHitByteIdentity(t *testing.T) {
	for _, spec := range []string{"REDTEST:REDMOV", "REDZEXT:REDTEST:REDMOV:ADDADD:SCHED"} {
		t.Run(spec, func(t *testing.T) {
			cold := parse(t, srcTwo)
			mgrCold, _ := pass.NewManager(spec)
			if _, err := mgrCold.Run(cold); err != nil {
				t.Fatal(err)
			}
			want := cold.String()

			m := memo.New(0, "v1")
			u1 := parse(t, srcTwo)
			if _, err := newManager(t, spec, m).Run(u1); err != nil {
				t.Fatal(err)
			}
			if got := u1.String(); got != want {
				t.Fatalf("fill run differs from cold run:\n%s\nvs\n%s", got, want)
			}
			if mm := m.Metrics(); mm.Stores == 0 {
				t.Fatalf("fill run stored nothing: %+v", mm)
			}

			u2 := parse(t, srcTwo)
			stats, err := newManager(t, spec, m).Run(u2)
			if err != nil {
				t.Fatal(err)
			}
			if got := u2.String(); got != want {
				t.Fatalf("memo-hit run differs from cold run:\n%s\nvs\n%s", got, want)
			}
			if stats.Get("MEMO", "functions") != 2 {
				t.Fatalf("expected a 2-function memo hit, stats:\n%s", stats)
			}
			if h, _ := m.Counters(); h == 0 {
				t.Fatal("no hits counted")
			}
		})
	}
}

// TestMemoLocalSharing: a unit whose functions are a subset of
// previously seen ones hits fully — cross-unit sharing at function
// granularity.
func TestMemoLocalSharing(t *testing.T) {
	const spec = "REDTEST:REDMOV"
	m := memo.New(0, "v1")
	u1 := parse(t, srcTwo)
	if _, err := newManager(t, spec, m).Run(u1); err != nil {
		t.Fatal(err)
	}

	coldG := parse(t, srcGOnly)
	mgrCold, _ := pass.NewManager(spec)
	if _, err := mgrCold.Run(coldG); err != nil {
		t.Fatal(err)
	}

	u2 := parse(t, srcGOnly)
	stats, err := newManager(t, spec, m).Run(u2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Get("MEMO", "functions") != 1 {
		t.Fatalf("expected cross-unit hit for g, stats:\n%s", stats)
	}
	if u2.String() != coldG.String() {
		t.Fatalf("shared-function splice differs from cold run:\n%s\nvs\n%s",
			u2.String(), coldG.String())
	}
}

// TestMemoInvalidation: a different spec, or a memo constructed under
// different versions, never returns an entry.
func TestMemoInvalidation(t *testing.T) {
	m := memo.New(0, "v1")
	u1 := parse(t, srcTwo)
	if _, err := newManager(t, "REDTEST", m).Run(u1); err != nil {
		t.Fatal(err)
	}
	// Same memo, different spec: miss.
	u2 := parse(t, srcTwo)
	stats, err := newManager(t, "REDMOV", m).Run(u2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Get("MEMO", "functions") != 0 {
		t.Fatal("different spec hit the memo")
	}
	// Same spec, different version salt: miss.
	m2 := memo.New(0, "v2")
	u3 := parse(t, srcTwo)
	if _, err := newManager(t, "REDTEST", m2).Run(u3); err != nil {
		t.Fatal(err)
	}
	if h, _ := m2.Counters(); h != 0 {
		t.Fatal("version-salted memo hit entries from another salt")
	}
}

// TestMemoRepeatRun: a repeat run over the same unedited unit takes
// the content path like any other run. Once the second run has filled
// entries for the optimized content, the third hits every function,
// splices nothing and leaves the unit untouched; an edit defeats the
// lookup.
func TestMemoRepeatRun(t *testing.T) {
	m := memo.New(0, "v1")
	mgr := newManager(t, "REDTEST:REDMOV", m)
	u := parse(t, srcTwo)
	if _, err := mgr.Run(u); err != nil { // cold: optimizes + fills
		t.Fatal(err)
	}
	if _, err := mgr.Run(u); err != nil { // fixpoint: fills identity entries
		t.Fatal(err)
	}
	want := u.String()
	verBefore := u.List.Version()
	s3, err := mgr.Run(u)
	if err != nil {
		t.Fatal(err)
	}
	if u.List.Version() != verBefore {
		t.Fatal("repeat run mutated the unit")
	}
	if u.String() != want {
		t.Fatal("repeat run changed the output")
	}
	if got, fns := s3.Get("MEMO", "functions"), len(u.Functions()); got != fns {
		t.Fatalf("repeat run hit %d functions, want all %d:\n%s", got, fns, s3)
	}
	if got := s3.Get("MEMO", "spliced"); got != 0 {
		t.Fatalf("repeat run spliced %d spans, want 0", got)
	}
	// An edit must defeat the content lookup (the edited content has
	// no entry).
	n := ir.DirectiveNode(".p2align", "4")
	u.List.InsertBefore(n, u.List.Back())
	s4, err := mgr.Run(u)
	if err != nil {
		t.Fatal(err)
	}
	if s4.Get("MEMO", "functions") != 0 {
		t.Fatal("edited unit still answered from the memo")
	}
	if !strings.Contains(u.String(), ".p2align") {
		t.Fatal("edit lost after post-edit run")
	}
}

// TestMemoBypasses: a hook, a dump option, a unit pass or a serial
// function pass keeps the memo out of the run entirely — no probe, no
// store, no counter moves.
func TestMemoBypasses(t *testing.T) {
	type hook struct{ pass.Hooks }
	cases := []struct {
		name string
		prep func(mgr *pass.Manager)
		spec string
	}{
		{"hook", func(mgr *pass.Manager) { mgr.Hook = hook{} }, "REDTEST"},
		{"dump", nil, "REDTEST=dump_after[/dev/null]"},
		{"CHECK", nil, "REDTEST:CHECK"}, // unit pass
		{"LOOP16", nil, "LOOP16"},       // unit pass
		{"LSD", nil, "LSD"},             // serial function pass
		{"BRALIGN", nil, "BRALIGN"},     // serial function pass
		{"layout", nil, "REDZEXT:REDTEST:REDMOV:ADDADD:SCHED:LOOP16"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := memo.New(0, "v1")
			for i := 0; i < 2; i++ {
				u := parse(t, srcTwo)
				mgr := newManager(t, tc.spec, m)
				if tc.prep != nil {
					tc.prep(mgr)
				}
				if _, err := mgr.Run(u); err != nil {
					t.Fatal(err)
				}
			}
			if mm := m.Metrics(); mm != (memo.Metrics{}) {
				t.Fatalf("memo engaged for %s: %+v", tc.name, mm)
			}
		})
	}
}

// TestMemoInertPlan: NewPlan with local false returns a plan that is
// not nil yet never answers or stores. Lookup misses where a local
// plan of the same unit and spec hits, Fill stores nothing, and no
// counter moves.
func TestMemoInertPlan(t *testing.T) {
	m := memo.New(0, "v1")
	if _, err := newManager(t, "REDTEST", m).Run(parse(t, srcTwo)); err != nil {
		t.Fatal(err)
	}
	u := parse(t, srcTwo)
	if _, ok := m.Lookup(m.NewPlan(u, "REDTEST", true)); !ok {
		t.Fatal("a local plan missed the filled memo")
	}
	before := m.Metrics()
	p := m.NewPlan(u, "REDTEST", false)
	if p == nil {
		t.Fatal("NewPlan with local false returned nil")
	}
	if n := p.Functions(); n != 0 {
		t.Errorf("inert plan covers %d functions, want 0", n)
	}
	if _, ok := m.Lookup(p); ok {
		t.Error("inert plan hit the memo")
	}
	if m.Fill(p, u) {
		t.Error("inert plan filled the memo")
	}
	if after := m.Metrics(); after != before {
		t.Errorf("inert plan moved the counters: %+v, then %+v", before, after)
	}
}

// TestMemoEviction: the LRU bound holds and evicted entries miss.
func TestMemoEviction(t *testing.T) {
	m := memo.New(1, "v1")
	u := parse(t, srcTwo)
	if _, err := newManager(t, "REDTEST", m).Run(u); err != nil {
		t.Fatal(err)
	}
	mm := m.Metrics()
	if mm.Entries > 1 {
		t.Fatalf("LRU bound violated: %+v", mm)
	}
	if mm.Evictions == 0 {
		t.Fatalf("expected evictions filling 2 functions into 1 slot: %+v", mm)
	}
	// With one of the two functions evicted, the unit cannot fully hit.
	u2 := parse(t, srcTwo)
	stats, err := newManager(t, "REDTEST", m).Run(u2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Get("MEMO", "functions") != 0 {
		t.Fatal("partially evicted unit still hit")
	}
}
