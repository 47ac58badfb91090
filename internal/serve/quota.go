package serve

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// maxQuotaClients bounds the bucket table. Beyond it, idle-and-full
// buckets (which a fresh bucket is indistinguishable from) are evicted
// on insert, so the table tracks active tenants, not address history.
const maxQuotaClients = 4096

// quotas is the per-client token-bucket layer UNDER the global
// admission control: a request must hold a client token before it may
// compete for a global queue slot. A tenant that exhausts its bucket
// is answered 429 + Retry-After without touching the queue, so one
// hot client saturating its quota consumes none of the capacity the
// other tenants share — exactly the isolation the global bound alone
// cannot give (it is first-come, first-served across clients).
//
// The bucket is the classic lazy-refill kind: tokens accrue at rate/s
// up to burst, one token per request, refill computed from the elapsed
// time at each take. No background goroutine, O(1) per request.
type quotas struct {
	rate  float64 // tokens per second per client
	burst float64 // bucket capacity

	mu sync.Mutex
	m  map[string]*bucket

	// rejectsTotal and grantedTotal survive bucket eviction; the
	// per-client counters live in the buckets themselves.
	rejectsTotal atomic.Int64
	grantedTotal atomic.Int64
}

type bucket struct {
	tokens  float64
	last    time.Time
	granted int64
	rejects int64
}

// newQuotas returns the quota layer, or nil when rate <= 0 (quotas
// disabled — every call admits). All methods are nil-safe.
func newQuotas(rate float64, burst int) *quotas {
	if rate <= 0 {
		return nil
	}
	if burst <= 0 {
		burst = 16
	}
	return &quotas{rate: rate, burst: float64(burst), m: make(map[string]*bucket)}
}

// refillLocked brings b's token count current as of now.
func (q *quotas) refillLocked(b *bucket, now time.Time) {
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(q.burst, b.tokens+dt*q.rate)
	}
	b.last = now
}

// bucketLocked returns client's bucket, creating (and, at the table
// cap, evicting an idle-full bucket to make room for) it.
func (q *quotas) bucketLocked(client string, now time.Time) *bucket {
	b, ok := q.m[client]
	if ok {
		return b
	}
	if len(q.m) >= maxQuotaClients {
		for id, old := range q.m {
			q.refillLocked(old, now)
			if old.tokens >= q.burst {
				delete(q.m, id)
				break
			}
		}
	}
	b = &bucket{tokens: q.burst, last: now}
	q.m[client] = b
	return b
}

// take attempts to consume one token for client. On refusal it
// returns the whole seconds (>= 1) until a token will be available —
// the Retry-After value.
func (q *quotas) take(client string) (ok bool, retryAfter int) {
	if q == nil {
		return true, 0
	}
	now := time.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	b := q.bucketLocked(client, now)
	q.refillLocked(b, now)
	if b.tokens >= 1 {
		b.tokens--
		b.granted++
		q.grantedTotal.Add(1)
		return true, 0
	}
	b.rejects++
	q.rejectsTotal.Add(1)
	wait := (1 - b.tokens) / q.rate
	return false, int(math.Max(1, math.Ceil(wait)))
}

// wait blocks until client holds a token or ctx is done. It is the
// archive stream's admission: a stream cannot answer 429 per unit
// mid-response, so an over-quota tenant's archive is *paced* to its
// refill rate instead of refused — same isolation, different
// surfacing. Waiting does not count as a reject.
func (q *quotas) wait(ctx context.Context, client string) error {
	if q == nil {
		return nil
	}
	for {
		now := time.Now()
		q.mu.Lock()
		b := q.bucketLocked(client, now)
		q.refillLocked(b, now)
		if b.tokens >= 1 {
			b.tokens--
			b.granted++
			q.grantedTotal.Add(1)
			q.mu.Unlock()
			return nil
		}
		d := time.Duration((1 - b.tokens) / q.rate * float64(time.Second))
		q.mu.Unlock()
		if d < time.Millisecond {
			d = time.Millisecond
		}
		timer := time.NewTimer(d)
		select {
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		case <-timer.C:
		}
	}
}

// snapshot returns the per-client counters for /metrics, plus the
// resident client count.
func (q *quotas) snapshot() (perClient map[string][2]int64, clients int) {
	if q == nil {
		return nil, 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	perClient = make(map[string][2]int64, len(q.m))
	for id, b := range q.m {
		perClient[id] = [2]int64{b.granted, b.rejects}
	}
	return perClient, len(q.m)
}
