package scope

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"mao/internal/trace"
)

// The per-request plane, one copy for both servers. A Layer wraps a
// server's handler: it resolves the request's identity once (request
// ID, trace context, client), keeps one Request record in the request
// context for the handler to fill in, and, when the request completes,
// projects that record into the access-log line, the flight record and
// the server's request metrics. Every surface reads the same record, so
// they agree by construction.

// Header names both servers read and write.
const (
	// RequestIDHeader carries the request ID. An inbound value of 1–128
	// bytes is kept (callers with their own tracing scheme pass it
	// through); anything else is replaced by 16 fresh hex digits, so an
	// unbounded attacker-controlled value never reaches a log, a span or
	// a response header. The effective ID is echoed on the response.
	RequestIDHeader = "X-Request-ID"
	// ClientHeader names the tenant a request belongs to (the quota
	// identity). Values of 1–128 bytes are kept; requests without one
	// are identified by the remote address's host, so unlabeled clients
	// are still told apart by origin.
	ClientHeader = "X-Mao-Client"
	// CacheHeader reports an optimize answer's result-cache verdict:
	// "hit", "miss" or "coalesced" (the request rode another request's
	// in-flight identical run).
	CacheHeader = "X-Mao-Cache"
)

// FlightRing is the number of recent requests every flight recorder
// keeps.
const FlightRing = 512

// Request is the one record of one HTTP request. The layer sets the
// identity fields before the handler runs; the handler fills in the
// rest from the goroutine serving the request.
type Request struct {
	ID     string  // effective X-Request-ID
	Trace  Context // effective trace context: inbound X-Mao-Trace, or originated
	Client string  // quota identity

	Cache   string // result-cache verdict, set with SetCache
	Shard   string // backend that answered (router)
	Retries int    // failover forwards (router)
	QueueNS int64  // admission-to-pickup wait (maod)
	// Spans is the request's span stream (maod); its invocation spans
	// become the flight record's per-pass latency vector.
	Spans []trace.Span
	Err   string // failure reason, set with Fail
}

type requestKey struct{}

// From returns the record of the request ctx belongs to. Outside a
// Layer (a handler called directly from a test, say) it returns a
// fresh detached record, so handlers never branch on its absence.
func From(ctx context.Context) *Request {
	if q, ok := ctx.Value(requestKey{}).(*Request); ok {
		return q
	}
	return &Request{}
}

// SetCache records the cache verdict and sets the X-Mao-Cache header to
// it; an empty verdict sets no header.
func (q *Request) SetCache(w http.ResponseWriter, verdict string) {
	q.Cache = verdict
	if verdict != "" {
		w.Header().Set(CacheHeader, verdict)
	}
}

// Fail answers with status and err as a JSON error body, and records
// err as the request's failure reason.
func (q *Request) Fail(w http.ResponseWriter, status int, err error) {
	q.Err = err.Error()
	body := ErrorBody(err)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

// ErrorResponse is the JSON body of every error answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// ErrorBody renders err as an error answer's body: the same bytes
// whether written directly or replayed from a buffered forward.
func ErrorBody(err error) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.Encode(ErrorResponse{Error: err.Error()})
	return b.Bytes()
}

// AccessRecord is one access-log line, the same shape from both
// servers.
type AccessRecord struct {
	Time       string  `json:"time"`
	Method     string  `json:"method"`
	Path       string  `json:"path"`
	Status     int     `json:"status"`
	DurationMS float64 `json:"dur_ms"`
	Bytes      int64   `json:"bytes"`
	Remote     string  `json:"remote"`
	RequestID  string  `json:"request_id"`
	TraceID    string  `json:"trace_id,omitempty"`
	Shard      string  `json:"shard,omitempty"`
	Cache      string  `json:"cache,omitempty"`
	Retries    int     `json:"retries,omitempty"`
	Error      string  `json:"error,omitempty"`
}

// Layer is one server's per-request plane.
type Layer struct {
	// AccessLog, when non-nil, receives one JSON line per request.
	AccessLog io.Writer
	// Flight receives one record per /v1/* request.
	Flight *Recorder
	// Observe, when non-nil, receives every request's status and
	// duration.
	Observe func(status int, d time.Duration)
}

// Wrap returns next with every request sent through the layer.
func (l *Layer) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		q := &Request{ID: requestID(r), Trace: traceContext(r), Client: clientID(r)}
		w.Header().Set(RequestIDHeader, q.ID)
		w.Header().Set(TraceHeader, q.Trace.Header())
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), requestKey{}, q)))
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		d := time.Since(start)
		if l.Observe != nil {
			l.Observe(sw.status, d)
		}
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			l.record(r, q, sw.status, start, d)
		}
		if l.AccessLog != nil {
			line, err := json.Marshal(AccessRecord{
				Time:       start.UTC().Format(time.RFC3339Nano),
				Method:     r.Method,
				Path:       r.URL.Path,
				Status:     sw.status,
				DurationMS: float64(d.Microseconds()) / 1000,
				Bytes:      sw.bytes,
				Remote:     r.RemoteAddr,
				RequestID:  q.ID,
				TraceID:    q.Trace.TraceID,
				Shard:      q.Shard,
				Cache:      q.Cache,
				Retries:    q.Retries,
				Error:      q.Err,
			})
			if err == nil {
				l.AccessLog.Write(append(line, '\n'))
			}
		}
	})
}

// record projects a completed request into the flight recorder. Once
// the ring is warm it allocates nothing beyond the pass names.
func (l *Layer) record(r *http.Request, q *Request, status int, start time.Time, d time.Duration) {
	rec, h := l.Flight.Acquire()
	rec.TimeUnixNS = start.Add(d).UnixNano()
	rec.TraceID = q.Trace.TraceID
	rec.RequestID = q.ID
	rec.Client = q.Client
	rec.Shard = q.Shard
	rec.Path = r.URL.Path
	rec.Cache = q.Cache
	rec.Status = status
	rec.Err = q.Err
	rec.QueueNS = q.QueueNS
	rec.DurNS = d.Nanoseconds()
	rec.Retries = q.Retries
	for _, sp := range q.Spans {
		if sp.Kind == trace.KindInvocation {
			rec.Passes = append(rec.Passes, PassNS{Pass: sp.Ref.String(), DurNS: int64(sp.Dur)})
		}
	}
	l.Flight.Commit(rec, h)
}

func requestID(r *http.Request) string {
	if id := r.Header.Get(RequestIDHeader); id != "" && len(id) <= 128 {
		return id
	}
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000deadbeef" // rand.Read failing means larger problems
	}
	return hex.EncodeToString(b[:])
}

// traceContext adopts a well-formed inbound X-Mao-Trace and originates
// a fresh trace otherwise.
func traceContext(r *http.Request) Context {
	if tc, ok := ParseHeader(r.Header.Get(TraceHeader)); ok {
		return tc
	}
	return NewContext()
}

func clientID(r *http.Request) string {
	if id := r.Header.Get(ClientHeader); id != "" && len(id) <= 128 {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// statusWriter captures the status code and body size a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// Unwrap exposes the wrapped writer to http.NewResponseController, so
// a streamed archive's per-record Flush reaches the connection.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
