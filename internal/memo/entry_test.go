package memo_test

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"mao/internal/asm"
	"mao/internal/check"
	"mao/internal/corpus"
	"mao/internal/ir"
	"mao/internal/memo"
	"mao/internal/trace"
)

// srcLines is one function whose testl REDTEST removes, followed by an
// addl that reads %ebx before any write: the checker warns reg-uninit
// at line 8.
const srcLines = `	.text
	.globl f
	.type f,@function
f:
	movl %edi, %eax
	subl $16, %eax
	testl %eax, %eax
	addl %ebx, %eax
	ret
	.size f, .-f
`

// twoComments shifts every line of srcLines down by two without
// changing the assembly.
const twoComments = "# one\n# two\n"

// uninitLine returns the line of the unit's reg-uninit diagnostic.
func uninitLine(t *testing.T, u *ir.Unit) int {
	t.Helper()
	for _, d := range check.CheckUnit(u) {
		if d.Rule == "reg-uninit" {
			return d.Line
		}
	}
	t.Fatalf("no reg-uninit diagnostic for:\n%s", u)
	return 0
}

// addlSourceLine returns the explain lineage's source line of the addl.
func addlSourceLine(t *testing.T, u *ir.Unit) int {
	t.Helper()
	for _, l := range trace.Lineage(u) {
		if l.Text == "\taddl\t%ebx, %eax" {
			return l.SourceLine
		}
	}
	t.Fatalf("no addl in:\n%s", u)
	return 0
}

// TestMemoHitReportsOwnSourceLines: a memo hit must report the lines
// of the request in hand, not those of the request that filled the
// entry. The two units differ only in two leading comment lines, so
// they share the entry, and the hit rebases its lines onto the unit.
func TestMemoHitReportsOwnSourceLines(t *testing.T) {
	m := memo.New(0, "v1")
	fill := parse(t, srcLines)
	if _, err := newManager(t, "REDTEST", m).Run(fill); err != nil {
		t.Fatal(err)
	}
	if got := uninitLine(t, fill); got != 8 {
		t.Fatalf("fill run: reg-uninit at line %d, want 8", got)
	}

	cold := parse(t, twoComments+srcLines)
	if _, err := newManager(t, "REDTEST", nil).Run(cold); err != nil {
		t.Fatal(err)
	}
	hit := parse(t, twoComments+srcLines)
	stats, err := newManager(t, "REDTEST", m).Run(hit)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Get("MEMO", "spliced") != 1 {
		t.Fatalf("second unit did not splice from the memo, stats:\n%s", stats)
	}
	if hit.String() != cold.String() {
		t.Fatalf("memo-hit run differs from cold run:\n%s\nvs\n%s", hit, cold)
	}
	if got, want := uninitLine(t, hit), uninitLine(t, cold); got != want || want != 10 {
		t.Errorf("reg-uninit at line %d after a memo hit, %d after a cold run, want 10", got, want)
	}
	if got, want := addlSourceLine(t, hit), addlSourceLine(t, cold); got != want || want != 10 {
		t.Errorf("explain source_line %d after a memo hit, %d after a cold run, want 10", got, want)
	}
	_, hitDiags, hitLineage := observe(t, hit)
	_, coldDiags, coldLineage := observe(t, cold)
	if !reflect.DeepEqual(hitDiags, coldDiags) {
		t.Errorf("check diagnostics after a memo hit:\n%v\nafter a cold run:\n%v", hitDiags, coldDiags)
	}
	if !reflect.DeepEqual(hitLineage, coldLineage) {
		t.Errorf("explain lineage after a memo hit:\n%v\nafter a cold run:\n%v", hitLineage, coldLineage)
	}
}

// TestMemoKeyFoldsRelativeLines: a span whose lines are laid out
// differently inside the function (a comment between two of its
// instructions) has a different key, so it never shares an entry
// whose rebased lines would be wrong for it.
func TestMemoKeyFoldsRelativeLines(t *testing.T) {
	m := memo.New(0, "v1")
	if _, err := newManager(t, "REDTEST", m).Run(parse(t, srcLines)); err != nil {
		t.Fatal(err)
	}
	inner := "\t.text\n\t.globl f\n\t.type f,@function\nf:\n\tmovl %edi, %eax\n# inner\n" +
		"\tsubl $16, %eax\n\ttestl %eax, %eax\n\taddl %ebx, %eax\n\tret\n\t.size f, .-f\n"
	u := parse(t, inner)
	stats, err := newManager(t, "REDTEST", m).Run(u)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Get("MEMO", "functions") != 0 {
		t.Fatalf("differently laid-out span hit the memo, stats:\n%s", stats)
	}
	if got := uninitLine(t, u); got != 9 {
		t.Errorf("reg-uninit at line %d, want 9", got)
	}
}

// fillFromWatchedSource fills m from a freshly allocated copy of
// srcLines and closes collected once that copy's bytes are
// garbage-collected.
func fillFromWatchedSource(t *testing.T, m *memo.Memo, collected chan struct{}) {
	t.Helper()
	var b strings.Builder
	b.WriteString(srcLines)
	src := b.String()
	runtime.SetFinalizer(unsafe.StringData(src), func(*byte) { close(collected) })
	u := parse(t, src)
	if _, err := newManager(t, "REDTEST", m).Run(u); err != nil {
		t.Fatal(err)
	}
	if mm := m.Metrics(); mm.Stores != 1 {
		t.Fatalf("fill stored %d entries, want 1", mm.Stores)
	}
}

// TestMemoEntriesOwnTheirStrings: a stored entry keeps nothing of the
// filling request's source text alive — its labels, symbols and
// directive text are the entry's own.
func TestMemoEntriesOwnTheirStrings(t *testing.T) {
	m := memo.New(0, "v1")
	collected := make(chan struct{})
	fillFromWatchedSource(t, m, collected)
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			// The entry still answers, byte-identically.
			u := parse(t, srcLines)
			if stats, err := newManager(t, "REDTEST", m).Run(u); err != nil || stats.Get("MEMO", "spliced") != 1 {
				t.Fatalf("entry did not splice after its source was collected: %v\n%s", err, stats)
			}
			cold := parse(t, srcLines)
			if _, err := newManager(t, "REDTEST", nil).Run(cold); err != nil {
				t.Fatal(err)
			}
			if u.String() != cold.String() {
				t.Fatalf("splice differs from cold run:\n%s\nvs\n%s", u, cold)
			}
			return
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the filling request's source is still reachable through the memo")
		}
	}
}

// TestMemoBadEntryRunsCold: an entry whose text no longer parses back
// into its stored node count leaves the unit untouched at splice time,
// counts as a miss, and the run falls back to the cold pipeline — the
// answer is byte-identical and the refill repairs the entry.
func TestMemoBadEntryRunsCold(t *testing.T) {
	cold := parse(t, srcTwo)
	if _, err := newManager(t, "REDTEST", nil).Run(cold); err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range map[string]func(string) string{
		"unparseable": func(string) string { return "\tnotamnemonic %eax\n" },
		"extra node":  func(s string) string { return s + "\tnop\n" },
		"lost node":   func(s string) string { return s[strings.Index(s, "\n")+1:] },
	} {
		t.Run(name, func(t *testing.T) {
			m := memo.New(0, "v1")
			if _, err := newManager(t, "REDTEST", m).Run(parse(t, srcTwo)); err != nil {
				t.Fatal(err)
			}
			u := parse(t, srcTwo)
			p := m.NewPlan(u, "REDTEST", true)
			g := 1 // REDTEST changes g, the second function
			good, ok := memo.EntryText(m, p, g)
			if !ok || good == "" {
				t.Fatalf("no changed entry for g (ok=%v)", ok)
			}
			memo.SetEntryText(m, p, g, corrupt(good))

			before, mm := u.String(), m.Metrics()
			hit, ok := m.Lookup(p)
			if !ok {
				t.Fatal("corrupted entry no longer found")
			}
			if _, err := hit.Splice(u); !errors.Is(err, memo.ErrBadEntry) {
				t.Fatalf("Splice error = %v, want ErrBadEntry", err)
			}
			if u.String() != before {
				t.Fatalf("a failed splice edited the unit:\n%s", u)
			}
			after := m.Metrics()
			if after.Hits != mm.Hits || after.Misses != mm.Misses+2 {
				t.Errorf("hits %d→%d, misses %d→%d; want the two probes counted as misses",
					mm.Hits, after.Hits, mm.Misses, after.Misses)
			}

			u = parse(t, srcTwo)
			stats, err := newManager(t, "REDTEST", m).Run(u)
			if err != nil {
				t.Fatalf("a bad entry failed the run: %v", err)
			}
			if stats.Get("MEMO", "functions") != 0 || stats.Get("REDTEST", "removed") != 1 {
				t.Errorf("run over a bad entry did not run cold, stats:\n%s", stats)
			}
			if u.String() != cold.String() {
				t.Fatalf("fallback run differs from cold run:\n%s\nvs\n%s", u, cold)
			}
			if text, _ := memo.EntryText(m, p, g); text != good {
				t.Errorf("the cold run's fill left entry %q, want %q", text, good)
			}
			u = parse(t, srcTwo)
			if stats, err := newManager(t, "REDTEST", m).Run(u); err != nil || stats.Get("MEMO", "spliced") != 1 {
				t.Errorf("refilled entry does not splice: %v\n%s", err, stats)
			}
			if u.String() != cold.String() {
				t.Fatalf("splice of the refilled entry differs from cold run:\n%s\nvs\n%s", u, cold)
			}
		})
	}
}

// TestMemoFootprint pins what an entry costs: after filling from the
// corpus fixtures and the 19 SPEC-shaped corpus workloads under SCHED
// (which rewrites most spans), the heap the memo retains is within a
// small multiple of its entries' text. 3x leaves room for keys and
// per-node records yet fails any entry that keeps a node graph (about
// 19x on this fill).
func TestMemoFootprint(t *testing.T) {
	sources := diffSources(t)
	for _, w := range append(corpus.Spec2000Int(0.2), corpus.Spec2006Subset(0.2)...) {
		sources[w.Name+".s"] = corpus.Generate(w)
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	m := memo.New(0, "v1")
	var keys []string
	for name, src := range sources {
		u, err := asm.ParseString(name, src)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, memo.Keys(m.NewPlan(u, "SCHED", true))...)
		if _, err := newManager(t, "SCHED", m).Run(u); err != nil {
			t.Fatal(err)
		}
	}
	text := memo.TextBytes(m, keys)
	keys = nil
	// What the memo retains is the heap it alone keeps reachable.
	held := heap()
	entries := m.Len() // m stays live through the measurement above
	m = nil
	retained := int64(held) - int64(heap())

	t.Logf("%d entries, %d text bytes, %d bytes retained (%.2fx)",
		entries, text, retained, float64(retained)/float64(text))
	if entries < 100 || text == 0 {
		t.Fatalf("fill stored %d entries with %d text bytes; the pin needs a real fill", entries, text)
	}
	if retained > 3*int64(text) {
		t.Errorf("memo retains %d bytes for %d bytes of entry text (%.2fx), want at most 3x",
			retained, text, float64(retained)/float64(text))
	}
}
