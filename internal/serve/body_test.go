package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// bigSource is a unit whose optimized answer is several times
// net/http's 2 KB chunking buffer: an answer that size goes out
// chunked unless the handler declares its length.
func bigSource() string {
	var b strings.Builder
	b.WriteString("\t.text\n")
	for i := range 40 {
		fmt.Fprintf(&b, "\t.type f%d,@function\nf%d:\n\tsubl $16, %%r15d\n\ttestl %%r15d, %%r15d\n\tje .Lz%d\n\tmovq 24(%%rsp), %%rdx\n.Lz%d:\n\tret\n\t.size f%d,.-f%d\n",
			i, i, i, i, i, i)
	}
	return b.String()
}

// postRawBody sends body as a JSON optimize request and returns the
// answer's status, declared length and raw bytes.
func postRawBody(t *testing.T, url string, body io.Reader) (int, int64, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/optimize", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.ContentLength, b
}

// TestResultCacheHitWritesStoredBytes: every hit on one entry answers
// with the same bytes — json.Encoder's encoding of the cached response
// with cached set — and declares their length, as the miss does.
func TestResultCacheHitWritesStoredBytes(t *testing.T) {
	_, ts := testServer(t, Config{})
	req := &OptimizeRequest{Name: "big.s", Source: bigSource(), Spec: "REDTEST:REDMOV", Options: OptimizeOptions{Check: true}}
	body, _ := json.Marshal(req)
	var answers [][]byte
	for i := range 3 {
		code, length, b := postRawBody(t, ts.URL, bytes.NewReader(body))
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, code, b)
		}
		if length != int64(len(b)) {
			t.Errorf("request %d: Content-Length %d for a %d-byte answer", i, length, len(b))
		}
		answers = append(answers, b)
	}
	if len(answers[1]) <= 2048 {
		t.Fatalf("answer of %d bytes fits net/http's chunking buffer", len(answers[1]))
	}
	if !bytes.Equal(answers[1], answers[2]) {
		t.Error("two hits on one entry answered different bytes")
	}
	// The miss answered the response the cache stored.
	var cached OptimizeResponse
	if err := json.Unmarshal(answers[0], &cached); err != nil {
		t.Fatal(err)
	}
	cached.Cached = true
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetEscapeHTML(false)
	enc.Encode(&cached)
	if !bytes.Equal(answers[1], want.Bytes()) {
		t.Errorf("hit answer differs from the encoded cached response:\n got %.200s\nwant %.200s", answers[1], want.Bytes())
	}
	if bytes.Equal(answers[0], answers[1]) {
		t.Error("the miss answered cached: true")
	}
}

// TestResultCacheConcurrentFirstHits: hits racing for an entry's
// first encoding all answer the same bytes.
func TestResultCacheConcurrentFirstHits(t *testing.T) {
	_, ts := testServer(t, Config{})
	body, _ := json.Marshal(&OptimizeRequest{Name: "big.s", Source: bigSource(), Spec: "REDTEST"})
	if code, _, b := postRawBody(t, ts.URL, bytes.NewReader(body)); code != http.StatusOK {
		t.Fatalf("miss: status %d: %s", code, b)
	}
	answers := make([][]byte, 8)
	var wg sync.WaitGroup
	for i := range answers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			answers[i], _ = io.ReadAll(resp.Body)
			if resp.Header.Get(cacheHeader) != "hit" {
				t.Errorf("request %d: verdict %q, want hit", i, resp.Header.Get(cacheHeader))
			}
		}()
	}
	wg.Wait()
	for i, a := range answers {
		if !bytes.Equal(a, answers[0]) || len(a) == 0 {
			t.Fatalf("hit %d answered %d bytes unlike hit 0's %d", i, len(a), len(answers[0]))
		}
	}
}

// TestBodyOverLimitAfterFirstValue: a JSON body longer than
// MaxSourceBytes answers 413 even when its first value ends inside the
// limit — the body is read whole before it is decoded — whether its
// length is declared or it arrives chunked.
func TestBodyOverLimitAfterFirstValue(t *testing.T) {
	_, ts := testServer(t, Config{MaxSourceBytes: 128})
	value := `{"source":"\tret\n"}`
	padded := value + strings.Repeat(" ", 200)
	for name, body := range map[string]io.Reader{
		"declared": strings.NewReader(padded),
		"chunked":  io.MultiReader(strings.NewReader(padded)),
	} {
		code, _, b := postRawBody(t, ts.URL, body)
		if code != http.StatusRequestEntityTooLarge || !strings.Contains(string(b), "request body exceeds 128 bytes") {
			t.Errorf("%s: status %d %s, want 413", name, code, b)
		}
	}
	if code, _, b := postRawBody(t, ts.URL, strings.NewReader(value)); code != http.StatusOK {
		t.Errorf("the value alone: status %d %s", code, b)
	}
}
