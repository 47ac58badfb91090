package pass

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mao/internal/ir"
	"mao/internal/relax"
)

// relaxUnitPass relaxes the whole unit through the invocation's state,
// as the alignment passes do.
type relaxUnitPass struct{}

func (relaxUnitPass) Name() string        { return "TESTRELAX" }
func (relaxUnitPass) Description() string { return "test unit pass relaxing through Ctx.Relax" }
func (relaxUnitPass) RunUnit(ctx *Ctx) (bool, error) {
	_, err := relax.Relax(ctx.Unit, &relax.Options{State: ctx.Relax})
	return false, err
}

// runWatched relaxes a fresh unit through a manager holding st and
// closes collected once the unit's first directive record is
// garbage-collected (the unit itself sits on a cycle with its nodes,
// and the runtime never finalizes an object on a cycle).
func runWatched(t *testing.T, st *relax.State, collected chan struct{}) {
	t.Helper()
	mgr, err := NewManager("TESTRELAX")
	if err != nil {
		t.Fatal(err)
	}
	mgr.Workers = 1
	mgr.RelaxState = st
	u := unitWithFuncs(t, 3)
	if _, err := mgr.Run(u); err != nil {
		t.Fatal(err)
	}
	runtime.SetFinalizer(u.List.Front().Dir, func(*ir.Directive) { close(collected) })
}

// TestManagerHandsStateTheRunsUnit: a run hands its unit to the
// manager's relaxation state before the first pass, so the state lets
// go of the previous run's unit even when no pass of the new run
// relaxes.
func TestManagerHandsStateTheRunsUnit(t *testing.T) {
	testRegister(func() Pass { return relaxUnitPass{} })
	var runs atomic.Int64
	testRegister(func() Pass { return &countFuncPass{name: "TESTNORELAX", runs: &runs} })

	st := relax.NewState()
	collected := make(chan struct{})
	runWatched(t, st, collected)

	mgr, err := NewManager("TESTNORELAX")
	if err != nil {
		t.Fatal(err)
	}
	mgr.Workers = 1
	mgr.RelaxState = st
	if _, err := mgr.Run(unitWithFuncs(t, 2)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(st)
			return
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the first run's unit is still reachable after a run over another unit")
		}
	}
}
