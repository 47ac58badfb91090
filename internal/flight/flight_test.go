package flight

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLeaderFollowersShareResult: every Join while a call is in flight
// lands on the same call, exactly one caller leads, and every waiter
// receives the leader's single Publish.
func TestLeaderFollowersShareResult(t *testing.T) {
	var g Group[int]
	const waiters = 8
	calls := make([]*Call[int], waiters)
	leaders := 0
	for i := range calls {
		c, leader := g.Join("k")
		calls[i] = c
		if leader {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders, want 1", leaders)
	}
	for _, c := range calls[1:] {
		if c != calls[0] {
			t.Fatal("a follower joined a different call")
		}
	}
	if _, leader := g.Join("other"); !leader {
		t.Fatal("a different key joined an existing call")
	}

	var got atomic.Int64
	var wg sync.WaitGroup
	for _, c := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Wait(context.Background())
			if err != nil {
				t.Error(err)
			}
			got.Add(int64(v))
		}()
	}
	calls[0].Publish(7)
	wg.Wait()
	if got.Load() != 7*waiters {
		t.Errorf("waiters received %d in total, want %d", got.Load(), 7*waiters)
	}
	// Publish retired the call: the next arrival leads a fresh one.
	if c, leader := g.Join("k"); !leader || c == calls[0] {
		t.Error("a Join after Publish adopted the published call")
	}
}

// TestPublishRacesLastLeave: the leader's Publish and the last waiter's
// Leave race. Either order is clean — the run's cancel fires exactly
// when it should (always on Publish, to release the run context), the
// key is unmapped, and no one blocks.
func TestPublishRacesLastLeave(t *testing.T) {
	var g Group[int]
	for i := 0; i < 200; i++ {
		c, leader := g.Join("k")
		if !leader {
			t.Fatal("a stale call survived the previous round")
		}
		var cancels atomic.Int64
		c.SetCancel(func() { cancels.Add(1) })
		ctx, cancel := context.WithCancel(context.Background())
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			c.Publish(i)
		}()
		go func() {
			defer wg.Done()
			<-start
			cancel()
		}()
		close(start)
		if v, err := c.Wait(ctx); err == nil && v != i {
			t.Fatalf("round %d: waiter got %d", i, v)
		}
		wg.Wait()
		<-c.Done()
		if n := cancels.Load(); n < 1 || n > 2 {
			t.Fatalf("round %d: cancel ran %d times, want 1 or 2", i, n)
		}
		g.mu.Lock()
		_, mapped := g.m["k"]
		g.mu.Unlock()
		if mapped {
			t.Fatalf("round %d: call still mapped after Publish and Leave", i)
		}
	}
}

// TestSoloNeverShared: an unjoinable call is invisible to Join, even
// under the same key space, and leaving it cancels its run.
func TestSoloNeverShared(t *testing.T) {
	var g Group[string]
	solo := g.Solo()
	joined, leader := g.Join("")
	if !leader || joined == solo {
		t.Fatal("Join adopted a Solo call")
	}
	if other := g.Solo(); other == solo {
		t.Fatal("two Solo calls are the same call")
	}

	canceled := make(chan struct{})
	solo.SetCancel(func() { close(canceled) })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := solo.Wait(ctx); err == nil {
		t.Fatal("Wait on a canceled context returned a result")
	}
	select {
	case <-canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("leaving the only waiter of a Solo call did not cancel its run")
	}
	// The joined call, unrelated, is still in flight and mapped.
	if c, leader := g.Join(""); leader || c != joined {
		t.Error("the Solo call's Leave disturbed a joined call")
	}
}

// TestPublishAfterAllLeftReachesNoOne: once every waiter left, the
// call is unmapped and its run canceled; the run's late Publish closes
// the abandoned call without touching the fresh call a later arrival
// started for the same key.
func TestPublishAfterAllLeftReachesNoOne(t *testing.T) {
	var g Group[int]
	old, _ := g.Join("k")
	var runCanceled atomic.Bool
	old.SetCancel(func() { runCanceled.Store(true) })
	g.Join("k") // a follower

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 2; i++ {
		if _, err := old.Wait(ctx); err == nil {
			t.Fatal("Wait returned a result before any Publish")
		}
	}
	if !runCanceled.Load() {
		t.Fatal("the last Leave did not cancel the run")
	}

	fresh, leader := g.Join("k")
	if !leader || fresh == old {
		t.Fatal("a later arrival adopted the abandoned call")
	}
	old.Publish(1) // the canceled run still publishes
	select {
	case <-fresh.Done():
		t.Fatal("the abandoned run's Publish reached the fresh call")
	default:
	}
	if again, leader := g.Join("k"); leader || again != fresh {
		t.Error("the abandoned run's Publish unmapped the fresh call")
	}
	fresh.Publish(2)
	if v, _ := fresh.Wait(context.Background()); v != 2 {
		t.Errorf("fresh call delivered %d, want 2", v)
	}
}
