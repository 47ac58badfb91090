package relax

import (
	"strings"
	"testing"

	"mao/internal/ir"
	"mao/internal/x86"
	"mao/internal/x86/encode"
)

// TestFastPathNoAllocs: re-relaxing an untouched unit through a reused
// State answers from the converged layout without allocating.
func TestFastPathNoAllocs(t *testing.T) {
	u := parse(t, paperBefore)
	st := NewState()
	if _, err := st.Relax(u, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := st.Relax(u, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("fast-path relax allocates %.1f times per call, want 0", allocs)
	}
	if m := st.Metrics(); m.FastPath == 0 || m.FullBuilds != 1 {
		t.Errorf("metrics = %+v; want one full build and fast-path hits", m)
	}
}

// TestSteadyStateProbeNoAllocs: the insert-probe → relax → remove →
// relax cycle — the alignment passes' inner loop — settles to zero
// allocations per cycle once partition and pools are warm.
func TestSteadyStateProbeNoAllocs(t *testing.T) {
	u := parse(t, paperBefore+"\tret\n\tret\n")
	st := NewState()
	opts := &Options{State: st}
	if _, err := Relax(u, opts); err != nil {
		t.Fatal(err)
	}
	probe := ir.InstNode(encode.Nop(1))
	anchor := u.List.Back()
	cycle := func() {
		u.List.InsertBefore(probe, anchor)
		st.NodeInserted(probe)
		if _, err := Relax(u, opts); err != nil {
			t.Fatal(err)
		}
		u.List.Remove(probe)
		st.NodeRemoved(probe)
		if _, err := Relax(u, opts); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm the rescan double-buffer
	allocs := testing.AllocsPerRun(50, cycle)
	if allocs != 0 {
		t.Errorf("steady-state probe cycle allocates %.1f times, want 0", allocs)
	}
	m := st.Metrics()
	if m.Rescans == 0 || m.FullBuilds != 1 {
		t.Errorf("metrics = %+v; want incremental rescans after one full build", m)
	}
	if r := m.ReuseRate(); r < 0.5 {
		t.Errorf("fragment reuse rate = %.2f, want > 0.5 for single-fragment edits", r)
	}
}

// TestUnnotifiedEditDetected: an edit through raw list ops (no
// notification) must not produce a stale layout — the version counter
// forces a sound full rebuild.
func TestUnnotifiedEditDetected(t *testing.T) {
	u := parse(t, paperBefore)
	st := NewState()
	l1, err := st.Relax(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := l1.SectionEnd[".text"]

	// Bypass the notification API entirely.
	u.List.InsertBefore(ir.InstNode(encode.Nop(1)), u.FindLabel(".Lcheck"))
	l2, err := st.Relax(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's example: one nop grows the jmp, +4 bytes total.
	if got := l2.SectionEnd[".text"]; got != before+4 {
		t.Errorf("section end after unnotified nop = %#x, want %#x", got, before+4)
	}
	if m := st.Metrics(); m.FullBuilds != 2 {
		t.Errorf("full builds = %d; an unnotified edit must trigger a rebuild", m.FullBuilds)
	}
}

// TestInPlaceMutationDetected: editing an instruction in place and
// reporting it only through BumpVersion (no NodeMutated) still
// invalidates the cached layout.
func TestInPlaceMutationDetected(t *testing.T) {
	u := parse(t, "\tmovl $1, %eax\n\tret\n")
	st := NewState()
	l1, err := st.Relax(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := findInsts(u)[0]
	sizeBefore := l1.Len(n)

	n.Inst.Args[0].Imm = 0x11223344 // same encoding size, new bytes
	u.List.BumpVersion()
	l2, err := st.Relax(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Len(n) != sizeBefore {
		t.Fatalf("size changed: %d -> %d", sizeBefore, l2.Len(n))
	}
	want := []byte{0xB8, 0x44, 0x33, 0x22, 0x11}
	if got := bytesOf(t, l2, n); string(got) != string(want) {
		t.Errorf("bytes after in-place edit = %x, want %x", got, want)
	}
}

// TestBytesChecksRelaxedLength: an instruction edited in place after
// Relax, with nobody told, no longer encodes to its relaxed length, and
// Bytes reports that instead of returning bytes that contradict the
// layout.
func TestBytesChecksRelaxedLength(t *testing.T) {
	u, l := relaxed(t, "\tmovl $1, %eax\n\tret\n")
	n := findInsts(u)[0]
	n.Inst.Args[0] = x86.RegOp(x86.EBX) // movl %ebx, %eax: 2 bytes, not 5
	_, err := l.Bytes(n)
	if err == nil || !strings.Contains(err.Error(), "predicted 5-byte instruction encoded to 2 bytes") {
		t.Errorf("Bytes after an unreported edit: err = %v", err)
	}
	if _, err := l.Image(u, ".text"); err == nil {
		t.Error("Image after an unreported edit: no error")
	}
}

// TestNotifiedMutationRescans: the same in-place edit via the precise
// notification path rescans instead of rebuilding.
func TestNotifiedMutationRescans(t *testing.T) {
	u := parse(t, "\tmovl $1, %eax\n\tnop\n\tret\n")
	st := NewState()
	if _, err := st.Relax(u, nil); err != nil {
		t.Fatal(err)
	}
	n := findInsts(u)[0]
	n.Inst.Args[0].Imm = 7
	u.List.BumpVersion()
	st.NodeMutated(n)
	l, err := st.Relax(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := bytesOf(t, l, n), []byte{0xB8, 7, 0, 0, 0}; string(got) != string(want) {
		t.Errorf("bytes = %x, want %x", got, want)
	}
	if m := st.Metrics(); m.FullBuilds != 1 || m.Rescans != 1 {
		t.Errorf("metrics = %+v; want exactly one rescan, no second build", m)
	}
}

// TestStateAcrossUnits: one State serially reused over different units
// rebuilds cleanly for each (the maod worker pattern).
func TestStateAcrossUnits(t *testing.T) {
	st := NewState()
	u1 := parse(t, "\tnop\n\tret\n")
	l1, err := st.Relax(u1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l1.SectionEnd[".text"] != 2 {
		t.Fatalf("u1 size = %d", l1.SectionEnd[".text"])
	}
	u2 := parse(t, "\tmovl $1, %eax\n\tret\n")
	l2, err := st.Relax(u2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l2.SectionEnd[".text"] != 6 {
		t.Fatalf("u2 size = %d", l2.SectionEnd[".text"])
	}
	// Back to u1: a unit switch always rebuilds (node indices are
	// per-list), never reuses stale tables.
	l3, err := st.Relax(u1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l3.SectionEnd[".text"] != 2 {
		t.Fatalf("u1 again size = %d", l3.SectionEnd[".text"])
	}
}

// TestForeignNodeReportsZero: Layout accessors mirror the old map-miss
// semantics for nodes outside the relaxed unit.
func TestForeignNodeReportsZero(t *testing.T) {
	u, l := relaxed(t, "\tnop\n\tret\n")
	stray := ir.InstNode(encode.Nop(1)) // never linked anywhere
	if l.Addr(stray) != 0 || l.Len(stray) != 0 || bytesOf(t, l, stray) != nil {
		t.Error("unlinked node must report zero addr/len and nil bytes")
	}
	removed := findInsts(u)[0]
	u.List.Remove(removed)
	if l.Addr(removed) != 0 || l.Len(removed) != 0 || bytesOf(t, l, removed) != nil {
		t.Error("removed node must report zero addr/len and nil bytes")
	}
}

// TestErrorLineAttribution: relaxation errors name the offending
// node's source position, and the reference fails identically.
func TestErrorLineAttribution(t *testing.T) {
	for _, tt := range []struct{ src, what string }{
		{"\tnop\n\t.skip bogus\n", ".skip"},
		// A branch tail is sized without being encoded at an address;
		// one the encoder rejects must still fail relaxation.
		{"\tnop\n\tlock jmp .La\n.La:\n\tret\n", "lock prefix on a relative branch"},
	} {
		u := parse(t, tt.src)
		_, err := Relax(u, nil)
		if err == nil {
			t.Fatalf("%q: expected an error", tt.src)
		}
		if !strings.Contains(err.Error(), "t.s:2:") {
			t.Errorf("error %q does not carry file:line attribution", err)
		}
		if !strings.Contains(err.Error(), tt.what) {
			t.Errorf("error %q does not name %q", err, tt.what)
		}
		if _, rerr := Reference(u, nil); rerr == nil || rerr.Error() != err.Error() {
			t.Errorf("reference error %q differs from %q", rerr, err)
		}
	}
}

// TestBaseChangeRebuilds: changing Options.Base cannot reuse cached
// addresses.
func TestBaseChangeRebuilds(t *testing.T) {
	u := parse(t, "\tnop\n.La:\n\tret\n")
	st := NewState()
	if _, err := st.Relax(u, &Options{Base: 0}); err != nil {
		t.Fatal(err)
	}
	l, err := st.Relax(u, &Options{Base: 0x1000})
	if err != nil {
		t.Fatal(err)
	}
	if a, _ := l.SymAddr(".La"); a != 0x1001 {
		t.Errorf(".La at %#x after base change, want 0x1001", a)
	}
}
