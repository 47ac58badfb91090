package scope

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// readDeclared reads body through ReadBody as a request declaring
// declared bytes under limit.
func readDeclared(t *testing.T, body []byte, declared, limit int64) ([]byte, error) {
	t.Helper()
	r := httptest.NewRequest(http.MethodPost, "/v1/optimize", io.MultiReader(bytes.NewReader(body)))
	r.ContentLength = declared
	return ReadBody(httptest.NewRecorder(), r, limit)
}

// TestReadBodyDistrustsDeclaredLength: a request that declares the
// limit and sends a few bytes allocates about bodyStart, not the
// declared length, and a buffer that grows stays within twice what
// arrived.
func TestReadBodyDistrustsDeclaredLength(t *testing.T) {
	const limit = 16 << 20
	sent := []byte(`{"source":"x"}`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := readDeclared(t, sent, limit, limit)
	runtime.ReadMemStats(&after)
	if err != nil || !bytes.Equal(got, sent) {
		t.Fatalf("ReadBody = %q, %v", got, err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 2*bodyStart {
		t.Errorf("a %d-byte body declaring %d bytes allocated %d bytes, want at most %d",
			len(sent), limit, alloc, 2*bodyStart)
	}

	big := bytes.Repeat([]byte("a"), 5*bodyStart+7)
	got, err = readDeclared(t, big, limit, limit)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("%d-byte body: %d bytes, %v", len(big), len(got), err)
	}
	if cap(got) > 2*len(big) {
		t.Errorf("%d-byte body declaring %d: buffer of %d bytes", len(big), limit, cap(got))
	}
}

// TestReadBodySizes: an honestly declared body is read into one buffer
// of its length up to bodyStart, and whole past it; an undeclared one
// is read whole; a body over the limit fails with *http.MaxBytesError
// whether or not its length is declared.
func TestReadBodySizes(t *testing.T) {
	const limit = 1 << 20
	for _, n := range []int{0, 1, 11 << 10, bodyStart, bodyStart + 1, 3 * bodyStart} {
		body := bytes.Repeat([]byte("b"), n)
		got, err := readDeclared(t, body, int64(n), limit)
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("%d bytes declared: %d read, %v", n, len(got), err)
		}
		if n <= bodyStart && cap(got) != n+1 {
			t.Errorf("%d bytes declared: buffer of %d, want %d", n, cap(got), n+1)
		}
		if got, err = readDeclared(t, body, -1, limit); err != nil || !bytes.Equal(got, body) {
			t.Fatalf("%d bytes undeclared: %d read, %v", n, len(got), err)
		}
	}
	over := bytes.Repeat([]byte("c"), limit+1)
	for _, declared := range []int64{limit + 1, -1, 10} {
		var tooBig *http.MaxBytesError
		if _, err := readDeclared(t, over, declared, limit); !errors.As(err, &tooBig) {
			t.Errorf("over the limit, %d declared: %v, want *http.MaxBytesError", declared, err)
		}
	}
}

// TestReadAllTrustsSize: ReadAll reads into one buffer of the given
// size, and still reads a reader that runs past it to the end.
func TestReadAllTrustsSize(t *testing.T) {
	body := strings.Repeat("d", 3*bodyStart)
	got, err := ReadAll(strings.NewReader(body), int64(len(body)))
	if err != nil || string(got) != body || cap(got) != len(body)+1 {
		t.Errorf("exact size: %d bytes in a buffer of %d, %v", len(got), cap(got), err)
	}
	for _, size := range []int64{-1, 0, 5} {
		if got, err := ReadAll(strings.NewReader(body), size); err != nil || string(got) != body {
			t.Errorf("size %d: %d bytes, %v", size, len(got), err)
		}
	}
}
