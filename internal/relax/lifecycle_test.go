package relax

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"mao/internal/ir"
	"mao/internal/x86"
	"mao/internal/x86/encode"
)

// unitA is a unit with many labels and position-dependent instructions
// (calls, RIP-relative loads), so its relaxation fills every table a
// state keeps.
func unitA() string {
	var b strings.Builder
	b.WriteString("\t.text\n")
	for i := 0; i < 24; i++ {
		fmt.Fprintf(&b, ".La%d:\n\tcall ext%d\n\tmovq sym%d(%%rip), %%rax\n\tjne .La%d\n", i, i, i, i)
	}
	return b.String()
}

// unitB is small: fewer nodes, labels and fragments than unitA.
const unitB = "\t.text\n.Lb0:\n\taddl $1, %eax\n\tjne .Lb1\n\tnop\n.Lb1:\n\tret\n"

// relaxWatched relaxes a fresh unit A through st and closes collected
// once A's first instruction record is garbage-collected. The unit
// itself cannot carry the finalizer: its nodes point back into it, and
// the runtime never finalizes an object on a cycle.
func relaxWatched(t *testing.T, st *State, collected chan struct{}) {
	t.Helper()
	a := parse(t, unitA())
	if _, err := st.Relax(a, nil); err != nil {
		t.Fatal(err)
	}
	runtime.SetFinalizer(findInsts(a)[0].Inst, func(*x86.Inst) { close(collected) })
}

// awaitCollected runs the collector until collected closes or the
// deadline passes.
func awaitCollected(t *testing.T, collected chan struct{}, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s is still reachable", what)
		}
	}
}

// TestStateDropsPreviousUnit: once a state relaxes unit B, nothing it
// keeps reaches unit A any more.
func TestStateDropsPreviousUnit(t *testing.T) {
	st := NewState()
	collected := make(chan struct{})
	relaxWatched(t, st, collected)
	if _, err := st.Relax(parse(t, unitB), nil); err != nil {
		t.Fatal(err)
	}
	awaitCollected(t, collected, "unit A, after the state relaxed unit B,")
	runtime.KeepAlive(st)
}

// TestStateLabelTablesHoldOneUnit: after relaxing B, the label tables
// hold B's labels and nothing of A's.
func TestStateLabelTablesHoldOneUnit(t *testing.T) {
	st := NewState()
	if _, err := st.Relax(parse(t, unitA()), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Relax(parse(t, unitB), nil); err != nil {
		t.Fatal(err)
	}
	got := slices.Sorted(slices.Values(st.labelNames))
	if want := []string{".Lb0", ".Lb1"}; !slices.Equal(got, want) {
		t.Errorf("label names = %v, want %v", got, want)
	}
	n := len(st.labelNames)
	if len(st.labelIdx) != n || len(st.labelCur) != n || len(st.labelPrev) != n || len(st.labelOwner) != n {
		t.Errorf("label tables disagree: idx %d, names %d, cur %d, prev %d, owner %d",
			len(st.labelIdx), n, len(st.labelCur), len(st.labelPrev), len(st.labelOwner))
	}
	if st.liveLabels != 2 {
		t.Errorf("live labels = %d, want 2", st.liveLabels)
	}
}

// TestStateIgnoresForeignNotifications: edits of unit B reported to a
// state that holds unit A leave A's partition untouched, so the next
// relaxation of A takes the fast path.
func TestStateIgnoresForeignNotifications(t *testing.T) {
	a := parse(t, unitA())
	st := NewState()
	if _, err := st.Relax(a, nil); err != nil {
		t.Fatal(err)
	}
	b := parse(t, unitB)
	bi := findInsts(b)
	probe := ir.InstNode(encode.Nop(1))
	b.List.InsertBefore(probe, bi[len(bi)-1])
	st.NodeInserted(probe)
	bi[0].Inst.Args[0].Imm = 2
	b.List.BumpVersion()
	st.NodeMutated(bi[0])
	b.List.Remove(bi[2])
	st.NodeRemoved(bi[2])

	for _, f := range st.frags {
		if f.dirty {
			t.Errorf("fragment %d of A marked dirty by B's edits", f.index)
		}
	}
	if st.anyDirty || st.needRebuild || st.accounted != 0 {
		t.Errorf("state moved by B's edits: anyDirty %v, needRebuild %v, accounted %d",
			st.anyDirty, st.needRebuild, st.accounted)
	}
	before := st.Metrics()
	if _, err := st.Relax(a, nil); err != nil {
		t.Fatal(err)
	}
	after := st.Metrics()
	if after.FastPath != before.FastPath+1 || after.FullBuilds != before.FullBuilds || after.Rescans != before.Rescans {
		t.Errorf("relaxing A after B's edits: metrics %+v -> %+v, want one fast-path hit", before, after)
	}
}
