package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// buildArchive frames units in maoar1 framing.
func buildArchive(units []archiveUnit) []byte {
	var buf bytes.Buffer
	for _, u := range units {
		fmt.Fprintf(&buf, "maoar1 %d %d\n%s%s", len(u.name), len(u.source), u.name, u.source)
	}
	return buf.Bytes()
}

// postArchive sends an archive and decodes the full NDJSON stream.
func postArchive(t *testing.T, url string, body []byte, query string) ([]ArchiveRecord, *ArchiveTrailer, int) {
	t.Helper()
	resp, err := http.Post(url+"/v1/optimize/archive"+query, "application/x-mao-archive", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, nil, resp.StatusCode
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	records, trailer := decodeStream(t, resp.Body)
	return records, trailer, resp.StatusCode
}

// decodeStream splits an NDJSON body into unit records and the trailer.
func decodeStream(t *testing.T, r io.Reader) ([]ArchiveRecord, *ArchiveTrailer) {
	t.Helper()
	var records []ArchiveRecord
	var trailer *ArchiveTrailer
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"done":`)) {
			var tr ArchiveTrailer
			if err := json.Unmarshal(line, &tr); err != nil {
				t.Fatalf("bad trailer line %s: %v", line, err)
			}
			trailer = &tr
			continue
		}
		var rec ArchiveRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad record line %s: %v", line, err)
		}
		records = append(records, rec)
	}
	return records, trailer
}

func TestArchiveBasic(t *testing.T) {
	_, ts := testServer(t, Config{})
	units := []archiveUnit{
		{name: "a.s", source: testSource},
		{name: "b.s", source: testSource},
		{name: "c.s", source: testSource},
	}
	records, trailer, code := postArchive(t, ts.URL, buildArchive(units), "?spec=REDTEST:REDMOV")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	if len(records) != 3 {
		t.Fatalf("records = %d, want 3", len(records))
	}
	if trailer == nil || !trailer.Done || trailer.Units != 3 || trailer.OK != 3 || trailer.Failed != 0 {
		t.Fatalf("trailer = %+v", trailer)
	}
	// Every archive position is answered exactly once, and each unit's
	// assembly is byte-identical to its single-request form.
	_, single, _ := postOptimize(t, ts.URL, &OptimizeRequest{
		Name: "a.s", Source: testSource, Spec: "REDTEST:REDMOV",
		Options: OptimizeOptions{NoCache: true},
	})
	seen := map[int]bool{}
	for _, rec := range records {
		if seen[rec.Index] {
			t.Errorf("index %d answered twice", rec.Index)
		}
		seen[rec.Index] = true
		if rec.Status != 200 {
			t.Errorf("unit %d status = %d (%s)", rec.Index, rec.Status, rec.Error)
		}
		if rec.Assembly != single.Assembly {
			t.Errorf("unit %d assembly differs from single-request output", rec.Index)
		}
		// The first unit runs the pipeline (REDTEST removes the
		// redundant test); its siblings carry identical functions, so
		// they may legitimately answer from the shared pipeline memo.
		if rec.Stats["REDTEST"]["removed"] != 1 && rec.Stats["MEMO"]["functions"] != 1 {
			t.Errorf("unit %d stats = %v", rec.Index, rec.Stats)
		}
	}
}

func TestArchiveMalformed(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []struct {
		name string
		body []byte
		code int
	}{
		{"empty", nil, 400},
		{"garbage header", []byte("not a header\n"), 400},
		{"bad magic", []byte("maoar9 1 1\nab"), 400},
		{"truncated body", []byte("maoar1 3 100\nabc"), 400},
		{"zero name", []byte("maoar1 0 3\nabc"), 400},
	}
	for _, c := range cases {
		if _, _, code := postArchive(t, ts.URL, c.body, ""); code != c.code {
			t.Errorf("%s: status = %d, want %d", c.name, code, c.code)
		}
	}
	// Over the unit cap.
	var many []archiveUnit
	for i := 0; i < 5; i++ {
		many = append(many, archiveUnit{name: fmt.Sprintf("u%d.s", i), source: testSource})
	}
	_, capped := testServer(t, Config{MaxArchiveUnits: 4})
	if _, _, code := postArchive(t, capped.URL, buildArchive(many), ""); code != 400 {
		t.Errorf("over unit cap: status = %d, want 400", code)
	}
	// A bad spec is rejected before the stream commits.
	if _, _, code := postArchive(t, ts.URL, buildArchive(many[:2]), "?spec=NOSUCHPASS"); code != 400 {
		t.Errorf("bad spec: status = %d, want 400", code)
	}
}

// TestArchiveBadUnitIsPerUnit asserts a unit that fails to parse
// produces a per-unit 422 record without sinking its siblings.
func TestArchiveBadUnitIsPerUnit(t *testing.T) {
	_, ts := testServer(t, Config{})
	units := []archiveUnit{
		{name: "good.s", source: testSource},
		{name: "bad.s", source: "\tthisisnotx86 %zz9, %qq3\n"},
		{name: "also-good.s", source: testSource},
	}
	records, trailer, code := postArchive(t, ts.URL, buildArchive(units), "?spec=REDTEST")
	if code != 200 {
		t.Fatalf("status = %d", code)
	}
	byIndex := map[int]ArchiveRecord{}
	for _, r := range records {
		byIndex[r.Index] = r
	}
	if byIndex[0].Status != 200 || byIndex[2].Status != 200 {
		t.Errorf("good units: %+v / %+v", byIndex[0], byIndex[2])
	}
	if byIndex[1].Status != 422 || byIndex[1].Error == "" {
		t.Errorf("bad unit: %+v", byIndex[1])
	}
	if trailer.OK != 2 || trailer.Failed != 1 {
		t.Errorf("trailer = %+v", trailer)
	}
}

// TestArchiveStreamsIncrementally proves incremental delivery: the
// first NDJSON record is observed while later units are still queued
// or executing — the client of a build-tree archive gets early
// results, not a buffered dump after the last unit.
func TestArchiveStreamsIncrementally(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	units := []archiveUnit{
		{name: "u0.s", source: testSource},
		{name: "u1.s", source: testSource},
		{name: "u2.s", source: testSource},
	}
	resp, err := http.Post(ts.URL+"/v1/optimize/archive?spec=SLEEPTEST=ms[250]",
		"application/x-mao-archive", bytes.NewReader(buildArchive(units)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		t.Fatal("stream ended before the first record")
	}
	var first ArchiveRecord
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatalf("first line: %v", err)
	}
	if first.Status != 200 {
		t.Fatalf("first record = %+v", first)
	}
	// The pipeline is still busy with the rest of the archive.
	if pending := s.queued.Load() + s.inflight.Load(); pending == 0 {
		t.Error("first record only observable after the whole archive finished")
	}
	var rest int
	for sc.Scan() {
		rest++
	}
	if rest != 3 { // two more records + trailer
		t.Errorf("remaining lines = %d, want 3", rest)
	}
}

// TestArchiveCancellationAbortsRemaining proves mid-stream
// cancellation cleans up: the remaining units abort via the shared
// RunContext plumbing and the pipeline drains to idle.
func TestArchiveCancellationAbortsRemaining(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})
	var units []archiveUnit
	for i := 0; i < 6; i++ {
		units = append(units, archiveUnit{name: fmt.Sprintf("u%d.s", i), source: testSource})
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "POST",
		ts.URL+"/v1/optimize/archive?spec=SLEEPTEST=ms[200]",
		bytes.NewReader(buildArchive(units)))
	req.Header.Set("Content-Type", "application/x-mao-archive")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("first record: %v", err)
	}
	cancel()
	resp.Body.Close()
	// All server-side work unwinds: nothing left queued or running.
	waitFor(t, "pipeline to drain after cancel", func() bool {
		return s.queued.Load() == 0 && s.inflight.Load() == 0
	})
}

// TestArchiveDrainFinishesStream is the drain-while-streaming
// guarantee: Close during an in-flight NDJSON stream lets admitted
// units finish, aborts the rest with per-unit records, terminates the
// stream with a trailer — and never deadlocks.
func TestArchiveDrainFinishesStream(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueDepth: 2})
	var units []archiveUnit
	for i := 0; i < 8; i++ {
		units = append(units, archiveUnit{name: fmt.Sprintf("u%d.s", i), source: testSource})
	}
	resp, err := http.Post(ts.URL+"/v1/optimize/archive?spec=SLEEPTEST=ms[150]",
		"application/x-mao-archive", bytes.NewReader(buildArchive(units)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	firstLine, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("first record: %v", err)
	}

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()

	// The stream must terminate: every unit answered, trailer present.
	records, trailer := decodeStream(t, io.MultiReader(strings.NewReader(firstLine), br))
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close deadlocked against the in-flight archive stream")
	}
	if len(records) != len(units) {
		t.Fatalf("records = %d, want %d (stream truncated by drain)", len(records), len(units))
	}
	if trailer == nil || !trailer.Done {
		t.Fatal("stream ended without a trailer")
	}
	if trailer.OK == 0 {
		t.Error("no admitted unit finished during drain")
	}
	if trailer.Aborted == 0 {
		t.Error("drain aborted no units — Close raced past the stream entirely?")
	}
	if trailer.OK+trailer.Failed+trailer.Aborted != len(units) {
		t.Errorf("trailer accounting off: %+v", trailer)
	}
	if !strings.Contains(trailer.Error, "draining") {
		t.Errorf("trailer error = %q, want a draining mention", trailer.Error)
	}
}

// TestArchiveSharesResultCache: archive units and single requests are
// the same content address, so a repeated archive is all cache hits.
func TestArchiveSharesResultCache(t *testing.T) {
	_, ts := testServer(t, Config{})
	units := []archiveUnit{
		{name: "a.s", source: testSource},
		{name: "b.s", source: testSource},
	}
	first, _, _ := postArchive(t, ts.URL, buildArchive(units), "?spec=REDTEST")
	for _, rec := range first {
		if rec.Cached {
			t.Errorf("cold archive unit %d claims cached", rec.Index)
		}
	}
	second, trailer, _ := postArchive(t, ts.URL, buildArchive(units), "?spec=REDTEST")
	for _, rec := range second {
		if !rec.Cached {
			t.Errorf("warm archive unit %d missed the cache", rec.Index)
		}
	}
	if trailer.OK != 2 {
		t.Errorf("trailer = %+v", trailer)
	}
	// The single-request path hits entries the archive populated.
	code, single, _ := postOptimize(t, ts.URL, &OptimizeRequest{
		Name: "a.s", Source: testSource, Spec: "REDTEST",
	})
	if code != 200 || !single.Cached {
		t.Errorf("single request after archive: code=%d cached=%v", code, single.Cached)
	}
}

// TestCacheDispositionHeader pins the X-Mao-Cache header the load
// generator and router tests read.
func TestCacheDispositionHeader(t *testing.T) {
	_, ts := testServer(t, Config{})
	body, _ := json.Marshal(&OptimizeRequest{Source: testSource, Spec: "REDTEST"})
	for i, want := range []string{"miss", "hit"} {
		resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if got := resp.Header.Get("X-Mao-Cache"); got != want {
			t.Errorf("request %d: X-Mao-Cache = %q, want %q", i, got, want)
		}
	}
}
