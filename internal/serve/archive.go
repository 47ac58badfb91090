package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mao/internal/check"
	"mao/internal/flight"
	"mao/internal/scope"
)

// The archive request path: POST /v1/optimize/archive accepts a whole
// build tree's worth of units in one request and streams results back
// as each unit finishes the pipeline — a client optimizing hundreds of
// functions sees the first result after one pipeline latency, not
// after the last.
//
// Framing ("maoar1", tar-lite): the body is a sequence of entries,
// each a header line followed by raw bytes —
//
//	maoar1 <nameLen> <srcLen>\n
//	<nameLen bytes of unit name><srcLen bytes of assembly source>
//
// Lengths are decimal byte counts; there are no separators between the
// name, the source, and the next header — the lengths delimit
// everything, so sources may contain anything (including lines that
// look like headers). The whole archive shares one pass spec and one
// option set, carried in query parameters exactly like the binary
// request path: spec, check, explain, verify, no_cache, deadline_ms.
//
// The response is NDJSON (application/x-ndjson): one ArchiveRecord
// per unit in COMPLETION order (the index field maps a record back to
// its archive position), flushed as written, followed by exactly one
// ArchiveTrailer. Units flow through the same queue → worker pipeline
// as single requests — same admission, same result cache (archive
// units and single requests share entries) — with a bounded in-flight
// window so one archive cannot monopolize the global queue.

// archiveMagic opens every entry header line.
const archiveMagic = "maoar1"

// maxArchiveNameLen bounds a unit name; names appear in diagnostics
// and records, not in bulk data.
const maxArchiveNameLen = 4096

// archiveUnit is one parsed entry.
type archiveUnit struct {
	name   string
	source string
}

// ArchiveRecord is one NDJSON line of an archive response: the
// outcome of one unit. Status mirrors the HTTP status the same unit
// would have received as a single /v1/optimize request (200, 422,
// 503/504 when aborted by cancellation, drain or deadline).
type ArchiveRecord struct {
	Index    int                       `json:"index"`
	Name     string                    `json:"name"`
	Status   int                       `json:"status"`
	Assembly string                    `json:"assembly,omitempty"`
	Stats    map[string]map[string]int `json:"stats,omitempty"`
	Diags    []check.Diag              `json:"diags,omitempty"`
	Verify   []VerifyVerdict           `json:"verify,omitempty"`
	Cached   bool                      `json:"cached,omitempty"`
	// Cache is the result-cache verdict of completed units — "hit",
	// "miss", or "coalesced" (the unit rode another in-flight
	// identical run) — the same disposition the X-Mao-Cache header
	// reports for single requests.
	Cache string `json:"cache,omitempty"`
	Error string `json:"error,omitempty"`
	// Trace is the unit's stitched span tree when ?trace= was set on
	// the archive request. Each unit salts its span IDs with its own
	// content address, so units sharing the archive's trace context
	// never collide.
	Trace []scope.Span `json:"trace,omitempty"`
}

// ArchiveTrailer is the final NDJSON line: per-archive accounting and,
// when the stream was cut short, the reason. Its presence is the
// client's proof of clean termination — a stream that ends without a
// trailer was truncated by the transport.
type ArchiveTrailer struct {
	Done    bool   `json:"done"`
	Units   int    `json:"units"`
	OK      int    `json:"ok"`
	Failed  int    `json:"failed"`
	Aborted int    `json:"aborted,omitempty"`
	Error   string `json:"error,omitempty"`
}

// parseArchive reads maoar1 framing from r (already length-capped by
// the caller). Errors carry the entry index for actionable 400s.
func parseArchive(r io.Reader, maxUnits int, maxSource int64) ([]archiveUnit, error) {
	br := bufio.NewReader(r)
	var units []archiveUnit
	for {
		header, err := br.ReadString('\n')
		if err == io.EOF && header == "" {
			return units, nil
		}
		if err != nil {
			return nil, fmt.Errorf("entry %d: reading header: %w", len(units), err)
		}
		var nameLen, srcLen int64
		if _, err := fmt.Sscanf(strings.TrimSuffix(header, "\n"), archiveMagic+" %d %d", &nameLen, &srcLen); err != nil {
			return nil, fmt.Errorf("entry %d: malformed header %q (want %q)",
				len(units), strings.TrimSuffix(header, "\n"), archiveMagic+" <nameLen> <srcLen>")
		}
		if nameLen <= 0 || nameLen > maxArchiveNameLen {
			return nil, fmt.Errorf("entry %d: name length %d out of range (1..%d)", len(units), nameLen, maxArchiveNameLen)
		}
		if srcLen < 0 || srcLen > maxSource {
			return nil, fmt.Errorf("entry %d: source length %d exceeds the %d-byte unit cap", len(units), srcLen, maxSource)
		}
		if len(units) >= maxUnits {
			return nil, fmt.Errorf("archive exceeds %d units", maxUnits)
		}
		buf := make([]byte, nameLen+srcLen)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("entry %d: truncated body: %w", len(units), err)
		}
		units = append(units, archiveUnit{name: string(buf[:nameLen]), source: string(buf[nameLen:])})
	}
}

// handleArchive is POST /v1/optimize/archive.
func (s *Server) handleArchive(w http.ResponseWriter, r *http.Request) {
	q := scope.From(r.Context())
	// One token opens the stream (429 if the client has none); each
	// unit then pays a token via quota.wait — pacing, not refusal,
	// because a committed 200 stream cannot turn into a 429.
	if ok, retryAfter := s.quota.take(q.Client); !ok {
		w.Header().Set("Retry-After", fmt.Sprint(retryAfter))
		q.Fail(w, http.StatusTooManyRequests, errors.New("client quota exhausted"))
		return
	}

	// Archives are multi-unit: the body cap scales per unit, bounded
	// by the unit count cap.
	maxBody := s.cfg.MaxSourceBytes * int64(s.cfg.MaxArchiveUnits)
	units, err := parseArchive(http.MaxBytesReader(w, r.Body, maxBody), s.cfg.MaxArchiveUnits, s.cfg.MaxSourceBytes)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			q.Fail(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("archive exceeds %d bytes", tooBig.Limit))
			return
		}
		q.Fail(w, http.StatusBadRequest, fmt.Errorf("invalid archive: %w", err))
		return
	}
	if len(units) == 0 {
		q.Fail(w, http.StatusBadRequest, errors.New("archive carries no units"))
		return
	}

	// The archive-wide spec and options, validated once for all units.
	params := r.URL.Query()
	proto := OptimizeRequest{Spec: params.Get("spec")}
	for _, p := range []struct {
		name string
		dst  *bool
	}{
		{"check", &proto.Options.Check},
		{"no_cache", &proto.Options.NoCache},
		{"explain", &proto.Options.Explain},
		{"verify", &proto.Options.Verify},
	} {
		if v := params.Get(p.name); v == "1" || v == "true" {
			*p.dst = true
		}
	}
	if v := params.Get("deadline_ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms < 0 {
			q.Fail(w, http.StatusBadRequest, fmt.Errorf("invalid deadline_ms %q", v))
			return
		}
		proto.Options.DeadlineMS = ms
	}
	if status, err := s.validateRequest(r, &proto); err != nil {
		q.Fail(w, status, err)
		return
	}

	// The deadline covers the whole stream: queueing and execution of
	// every unit.
	ctx, cancel := context.WithTimeout(r.Context(), s.deadlineFor(&proto))
	defer cancel()

	// The stream commits here: from now on, failures surface as
	// per-unit records and the trailer, never as an HTTP error.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)

	outcomes := make(chan ArchiveRecord, len(units))
	go s.submitArchive(ctx, q.Client, units, &proto, q.Trace, outcomes)

	trailer := ArchiveTrailer{Units: len(units)}
	for i := 0; i < len(units); i++ {
		rec := <-outcomes
		switch rec.Status {
		case http.StatusOK:
			trailer.OK++
		case 503, 504:
			trailer.Aborted++
			if trailer.Error == "" {
				trailer.Error = rec.Error
			}
		default:
			trailer.Failed++
		}
		// A write error means the client is gone; cancel the remaining
		// work but keep draining outcomes so the submitter never blocks.
		if err := enc.Encode(rec); err != nil {
			cancel()
			continue
		}
		rc.Flush()
	}
	trailer.Done = true
	enc.Encode(trailer)
	rc.Flush()
}

// archiveWindow bounds how many of one archive's units may occupy the
// global queue at once, so a single archive shares the queue with
// other tenants' single requests instead of monopolizing it.
func (s *Server) archiveWindow() int {
	w := s.cfg.QueueDepth / 4
	if w < 1 {
		w = 1
	}
	if w > 16 {
		w = 16
	}
	return w
}

// submitArchive pushes every unit through quota pacing → result cache
// → admission, bounded by the in-flight window, and posts exactly one
// outcome per unit. It never blocks forever: admission refusals are
// retried while the context lives, drain (503) and context death
// abort the remaining units with one record each — which is what lets
// the writer loop, and therefore Server.Close, always terminate.
func (s *Server) submitArchive(ctx context.Context, client string, units []archiveUnit, proto *OptimizeRequest, tc scope.Context, outcomes chan<- ArchiveRecord) {
	window := make(chan struct{}, s.archiveWindow())
	abortRest := func(from int, status int, why string) {
		for i := from; i < len(units); i++ {
			outcomes <- ArchiveRecord{Index: i, Name: units[i].name, Status: status, Error: why}
		}
	}
	// Traced archives bypass the cache lookup and coalescing exactly
	// like traced single requests: every unit executes, so every
	// record carries a span tree.
	shared := shareable(proto)
	// wait posts unit i's outcome once its call publishes: verdict is
	// "miss" for the unit that led the run, "coalesced" for units that
	// rode along.
	wait := func(i int, name, key, verdict string, c *flight.Call[jobResult]) {
		res, err := c.Wait(ctx)
		switch {
		case err != nil:
			outcomes <- ArchiveRecord{Index: i, Name: name, Status: statusForCtx(err), Error: "unit abandoned: " + err.Error()}
		case res.err != nil:
			outcomes <- ArchiveRecord{Index: i, Name: name, Status: res.status, Error: res.err.Error()}
		default:
			rec := recordFor(i, name, res.resp, false)
			rec.Cache = verdict
			if proto.Options.Trace != "" {
				// The unit's content address salts its span IDs, so
				// sibling units under the shared trace context get
				// disjoint ID spaces.
				rec.Trace = scope.Project(res.spans, tc, "maod", key)
			}
			outcomes <- rec
		}
	}
	for i, u := range units {
		// Token pacing: an over-quota archive proceeds at the client's
		// refill rate.
		if err := s.quota.wait(ctx, client); err != nil {
			abortRest(i, statusForCtx(err), "archive aborted: "+err.Error())
			return
		}
		req := &OptimizeRequest{Name: u.name, Source: u.source, Spec: proto.Spec, Options: proto.Options}
		key := req.Key()
		if shared {
			if e, ok := s.results.get(key); ok {
				outcomes <- recordFor(i, u.name, e.resp, true)
				continue
			}
		}
		// In-flight miss coalescing, archive grain: a unit identical to
		// one already running — in this archive or any concurrent
		// request — waits on the shared run instead of admitting its
		// own. Followers consume neither a queue slot nor a window slot.
		c, leader := s.call(key, shared)
		if !leader {
			s.met.coalescedTotal.Add(1)
			go wait(i, u.name, key, "coalesced", c)
			continue
		}
		// The leader publishes on every path, so cross-request waiters
		// never hang on a run that will not start.
		abortCtx := func() {
			err := fmt.Errorf("archive aborted: %w", ctx.Err())
			c.Publish(jobResult{status: statusForCtx(ctx.Err()), err: err})
			abortRest(i, statusForCtx(ctx.Err()), err.Error())
		}
		select {
		case window <- struct{}{}:
		case <-ctx.Done():
			abortCtx()
			return
		}
		// The shared run must survive this archive's cancellation for
		// waiters on other requests; the last waiter out cancels it.
		j := s.leaderJob(c, ctx, req, key)
		if !s.admitArchiveJob(ctx, j) {
			<-window
			if ctx.Err() != nil {
				abortCtx()
			} else {
				c.Publish(jobResult{status: http.StatusServiceUnavailable, err: errors.New("server is draining")})
				abortRest(i, http.StatusServiceUnavailable, "archive aborted: server is draining")
			}
			return
		}
		go func() { c.Publish(<-j.done) }()
		go func() {
			defer func() { <-window }()
			wait(i, u.name, key, "miss", c)
		}()
	}
}

// admitArchiveJob admits j, retrying while the queue is full. It
// returns false when the server is draining or ctx dies — the two
// conditions under which the archive must abort instead of waiting.
func (s *Server) admitArchiveJob(ctx context.Context, j *job) bool {
	for {
		ok, retryAfter := s.admit(j)
		if ok {
			return true
		}
		if retryAfter == 0 { // draining
			return false
		}
		timer := time.NewTimer(2 * time.Millisecond)
		select {
		case <-ctx.Done():
			timer.Stop()
			return false
		case <-timer.C:
		}
	}
}

// recordFor projects a completed response onto the NDJSON record
// schema.
func recordFor(index int, name string, resp *OptimizeResponse, cached bool) ArchiveRecord {
	verdict := "miss"
	if cached {
		verdict = "hit"
	}
	return ArchiveRecord{
		Index:    index,
		Name:     name,
		Status:   http.StatusOK,
		Assembly: resp.Assembly,
		Stats:    resp.Stats,
		Diags:    resp.Diags,
		Verify:   resp.Verify,
		Cached:   cached,
		Cache:    verdict,
	}
}
