package scope

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"sync/atomic"
)

// The flight recorder: postmortem visibility with zero steady-state
// allocations on the request hot path. Both the daemon and the router
// keep one; every completed request writes one FlightRecord into a
// bounded ring (the last N requests), and two side reservoirs retain
// what a ring would age out too fast — the slowest requests seen and
// every errored request.
//
// The ring takes no mutex: slots are claimed with a per-slot atomic
// sequence (odd = owned, even = published), writers claim by CAS and
// publish by increment, and readers (the /debug/scope/{recent,
// slowest,errors} endpoints) claim the same way to copy out — a few
// dozen nanoseconds per slot, so a debug scrape never stalls the
// request path measurably and the memory accesses stay data-race-free
// under the race detector.
//
// Hot-path contract (pinned by an AllocsPerRun test): Acquire +
// fill + Commit performs zero heap allocations once every ring slot
// has been written once — the record's Passes vector reuses the
// slot's slice capacity, and the slowest-reservoir check is one
// atomic load in the common case.

// FlightRecord is one completed request, the element of every
// /debug/scope payload (pinned by testdata/scope_flight.schema.json).
type FlightRecord struct {
	// Seq is the record's global sequence number (monotonic per
	// process); readers use it to order and de-duplicate.
	Seq uint64 `json:"seq"`
	// TimeUnixNS is the completion wall-clock time.
	TimeUnixNS int64 `json:"time_unix_ns"`
	// TraceID / RequestID correlate the record with the distributed
	// trace and the X-Request-ID plane.
	TraceID   string `json:"trace_id,omitempty"`
	RequestID string `json:"request_id,omitempty"`
	// Client is the quota identity (X-Mao-Client or remote address).
	Client string `json:"client,omitempty"`
	// Shard is the backend that served the request (router-side).
	Shard string `json:"shard,omitempty"`
	Path  string `json:"path,omitempty"`
	// Cache is the result-cache verdict: "hit", "miss", "coalesced"
	// (the request rode another in-flight identical run), or "".
	Cache  string `json:"cache,omitempty"`
	Status int    `json:"status"`
	Err    string `json:"error,omitempty"`
	// QueueNS is the admission-to-pickup wait (daemon-side).
	QueueNS int64 `json:"queue_ns,omitempty"`
	DurNS   int64 `json:"dur_ns"`
	// Retries counts failover forwards (router-side).
	Retries int `json:"retries,omitempty"`
	// Passes is the per-pass latency vector of the request's pipeline
	// run, in invocation order.
	Passes []PassNS `json:"passes,omitempty"`
}

// PassNS is one entry of the per-pass latency vector.
type PassNS struct {
	Pass  string `json:"pass"`
	DurNS int64  `json:"dur_ns"`
}

// reset clears r for reuse, keeping the Passes capacity — the reuse
// that makes the steady-state hot path allocation-free.
func (r *FlightRecord) reset() {
	passes := r.Passes[:0]
	*r = FlightRecord{}
	r.Passes = passes
}

// copyFrom deep-copies src into r (reservoir insertion; off the hot
// path, allocation is fine here).
func (r *FlightRecord) copyFrom(src *FlightRecord) {
	passes := append(r.Passes[:0], src.Passes...)
	*r = *src
	r.Passes = passes
}

// flightSlot is one seqlock-guarded ring slot: seq is odd while a
// writer owns the slot, and bumps by 2 per completed write.
type flightSlot struct {
	seq atomic.Uint64
	rec FlightRecord
}

// Recorder is the flight recorder. The zero value is unusable;
// construct with NewRecorder.
type Recorder struct {
	slots []flightSlot
	mask  uint64
	next  atomic.Uint64 // next sequence number to assign

	// slowThresholdNS is the fast-path gate for the slowest
	// reservoir: requests at or below it cannot enter, so the common
	// case costs one atomic load.
	slowThresholdNS atomic.Int64

	slowMu  sync.Mutex
	slowest []FlightRecord // at most slowCap, unordered heap by DurNS (min at [0])

	errMu   sync.Mutex
	errs    []FlightRecord // bounded ring of errored requests
	errNext int
	errSeen uint64
}

// slowCap bounds the slowest-requests reservoir; errCap the errored
// ring.
const (
	slowCap = 32
	errCap  = 256
)

// NewRecorder returns a recorder retaining the last n completed
// requests (n is rounded up to a power of two, minimum 16).
func NewRecorder(n int) *Recorder {
	size := 16
	for size < n {
		size <<= 1
	}
	slots := make([]flightSlot, size)
	for i := range slots {
		// A reader can reach a slot between a writer's sequence claim
		// and its slot claim; an unwritten slot's Seq must match no
		// sequence number, or Recent would report it as a record.
		slots[i].rec.Seq = math.MaxUint64
	}
	return &Recorder{slots: slots, mask: uint64(size - 1)}
}

// Acquire claims the next ring slot and returns its record, reset for
// filling, plus an opaque handle for Commit. The claimed slot is
// invisible to readers until Commit.
func (r *Recorder) Acquire() (*FlightRecord, uint64) {
	seq := r.next.Add(1) - 1
	slot := &r.slots[seq&r.mask]
	// Claim the slot. Contention here means the ring wrapped within
	// one write's duration (a writer lapped us) or a reader is mid
	// copy-out; both hold the slot for a handful of field copies, so
	// spinning is bounded and tiny.
	slot.claim()
	slot.rec.reset()
	slot.rec.Seq = seq
	return &slot.rec, seq
}

// claim flips the slot's sequence odd, spinning out other owners.
func (s *flightSlot) claim() {
	for {
		v := s.seq.Load()
		if v&1 == 0 && s.seq.CompareAndSwap(v, v+1) {
			return
		}
	}
}

// Commit publishes a record claimed by Acquire and feeds the
// reservoirs.
func (r *Recorder) Commit(rec *FlightRecord, handle uint64) {
	slot := &r.slots[handle&r.mask]
	// Reservoirs first: they copy out of the slot, and publication
	// makes the slot fair game for lapping writers.
	if rec.Status >= 400 || rec.Err != "" {
		r.recordError(rec)
	}
	r.maybeSlow(rec)
	slot.seq.Add(1) // odd → even: published
}

// recordError appends rec to the bounded errored-requests ring.
func (r *Recorder) recordError(rec *FlightRecord) {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	r.errSeen++
	if len(r.errs) < errCap {
		var cp FlightRecord
		cp.copyFrom(rec)
		r.errs = append(r.errs, cp)
		return
	}
	r.errs[r.errNext].copyFrom(rec)
	r.errNext = (r.errNext + 1) % errCap
}

// maybeSlow inserts rec into the slowest reservoir when it beats the
// current floor. The atomic threshold makes the common case (request
// not slower than the floor of a full reservoir) one load + compare.
func (r *Recorder) maybeSlow(rec *FlightRecord) {
	if rec.DurNS <= r.slowThresholdNS.Load() {
		return
	}
	r.slowMu.Lock()
	defer r.slowMu.Unlock()
	if len(r.slowest) < slowCap {
		var cp FlightRecord
		cp.copyFrom(rec)
		r.slowest = append(r.slowest, cp)
		if len(r.slowest) == slowCap {
			r.slowThresholdNS.Store(r.slowMin())
		}
		return
	}
	// Replace the current minimum if rec beats it.
	minIdx := 0
	for i := range r.slowest {
		if r.slowest[i].DurNS < r.slowest[minIdx].DurNS {
			minIdx = i
		}
	}
	if rec.DurNS > r.slowest[minIdx].DurNS {
		r.slowest[minIdx].copyFrom(rec)
		r.slowThresholdNS.Store(r.slowMin())
	}
}

func (r *Recorder) slowMin() int64 {
	min := r.slowest[0].DurNS
	for i := range r.slowest {
		if r.slowest[i].DurNS < min {
			min = r.slowest[i].DurNS
		}
	}
	return min
}

// Recent snapshots the ring, newest first. Each slot is claimed for
// the duration of one record copy; records lapped by faster writers
// between the sequence read and the claim are dropped.
func (r *Recorder) Recent() []FlightRecord {
	hi := r.next.Load()
	n := uint64(len(r.slots))
	if hi < n {
		n = hi
	}
	out := make([]FlightRecord, 0, n)
	for i := uint64(0); i < n; i++ {
		seq := hi - 1 - i
		slot := &r.slots[seq&r.mask]
		slot.claim()
		var cp FlightRecord
		cp.copyFrom(&slot.rec)
		slot.seq.Add(1)
		if cp.Seq != seq {
			continue // lapped: the slot now holds a newer record
		}
		out = append(out, cp)
	}
	return out
}

// Slowest snapshots the slowest-requests reservoir, slowest first.
func (r *Recorder) Slowest() []FlightRecord {
	r.slowMu.Lock()
	out := make([]FlightRecord, len(r.slowest))
	for i := range r.slowest {
		out[i].copyFrom(&r.slowest[i])
	}
	r.slowMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].DurNS > out[j].DurNS })
	return out
}

// Errors snapshots the errored-requests ring, newest first, plus the
// total number of errors seen (the ring may have dropped older ones).
func (r *Recorder) Errors() ([]FlightRecord, uint64) {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	out := make([]FlightRecord, 0, len(r.errs))
	// r.errNext is the oldest entry once the ring wrapped.
	for i := 0; i < len(r.errs); i++ {
		idx := r.errNext - 1 - i
		for idx < 0 {
			idx += len(r.errs)
		}
		if len(r.errs) < errCap {
			// Not wrapped yet: entries are append-ordered.
			idx = len(r.errs) - 1 - i
		}
		var cp FlightRecord
		cp.copyFrom(&r.errs[idx])
		out = append(out, cp)
	}
	return out, r.errSeen
}

// FlightView is the JSON payload of every /debug/scope view, pinned by
// testdata/scope_flight.schema.json; maotop decodes it.
type FlightView struct {
	Process    string         `json:"process"`
	View       string         `json:"view"`
	ErrorsSeen uint64         `json:"errors_seen,omitempty"`
	Records    []FlightRecord `json:"records"`
}

// DebugHandler returns a server's debug plane for its opt-in
// -debug-addr listener: the net/http/pprof endpoints under
// /debug/pprof/ and rec's views under /debug/scope/{recent,slowest,
// errors}, named process in the payload. It is never mounted on a
// service port: profiles and flight records expose internals (goroutine
// stacks, other tenants' request metadata, timing side channels).
func DebugHandler(process string, rec *Recorder) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	views := map[string]func() ([]FlightRecord, uint64){
		"recent":  func() ([]FlightRecord, uint64) { return rec.Recent(), 0 },
		"slowest": func() ([]FlightRecord, uint64) { return rec.Slowest(), 0 },
		"errors":  rec.Errors,
	}
	for view, snapshot := range views {
		mux.HandleFunc("GET /debug/scope/"+view, func(w http.ResponseWriter, _ *http.Request) {
			recs, seen := snapshot()
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetEscapeHTML(false)
			enc.Encode(FlightView{Process: process, View: view, ErrorsSeen: seen, Records: recs})
		})
	}
	return mux
}
