package scope

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"mao/internal/trace"
)

// TestLayerRecordReadsSpans: a request's flight record takes its queue
// wait and per-pass latencies from the request's span stream, the one
// place the daemon records them.
func TestLayerRecordReadsSpans(t *testing.T) {
	rec := NewRecorder(8)
	l := &Layer{Flight: rec}
	h := l.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		From(r.Context()).Spans = []trace.Span{
			{Kind: trace.KindQueue, Dur: 1500, Parent: -1},
			{Kind: trace.KindBatch, Dur: 9000, Parent: 0},
			{Kind: trace.KindPipeline, Dur: 8000, Parent: 1},
			{Kind: trace.KindInvocation, Ref: trace.Ref{Pass: "REDTEST"}, Dur: 700, Parent: 2},
		}
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/optimize", nil))
	got := rec.Recent()
	if len(got) != 1 {
		t.Fatalf("%d flight records, want 1", len(got))
	}
	if got[0].QueueNS != 1500 {
		t.Errorf("queue_ns = %d, want the queue span's 1500", got[0].QueueNS)
	}
	if want := (PassNS{Pass: "REDTEST[0]", DurNS: 700}); len(got[0].Passes) != 1 || got[0].Passes[0] != want {
		t.Errorf("passes = %+v, want [%+v]", got[0].Passes, want)
	}
}
