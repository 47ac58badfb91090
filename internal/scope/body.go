package scope

import (
	"io"
	"net/http"
)

// bodyStart bounds the buffer ReadBody allocates before any of a
// request body has arrived. It covers the bodies the benchmark corpus
// sends (11.5 KB on average), so they are read into one buffer of
// their declared length, while a client that declares a large body and
// sends little holds at most this much.
const bodyStart = 64 << 10

// ReadBody reads r's body into a buffer sized from its Content-Length.
// A body longer than limit fails with an *http.MaxBytesError: at once
// when its declared length says so, otherwise when the read passes the
// limit. The declared length comes from the client and is not trusted:
// the buffer starts at it, at most bodyStart, and grows toward it at
// most doubling, so it stays within the larger of bodyStart and twice
// what has arrived. Both servers read every buffered request body
// through it.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	if r.ContentLength > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	return readAll(http.MaxBytesReader(w, r.Body, limit), r.ContentLength, bodyStart)
}

// ReadAll reads rd to EOF, as io.ReadAll does, into a buffer allocated
// once for size bytes (size < 0: unknown, and the buffer grows as
// io.ReadAll's does). It trusts size: use it only for a length declared
// by a trusted peer, such as a shard's answer to the router.
func ReadAll(rd io.Reader, size int64) ([]byte, error) {
	return readAll(rd, size, size)
}

// readAll reads rd to EOF into a buffer of min(size, start) bytes that
// grows toward size at most doubling, then as append grows it if rd
// runs past size. The spare byte lets the read that reports EOF land
// without growing the buffer.
func readAll(rd io.Reader, size, start int64) ([]byte, error) {
	if size < 0 {
		return io.ReadAll(rd)
	}
	b := make([]byte, 0, min(size, start)+1)
	for {
		n, err := rd.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
		if len(b) < cap(b) {
			continue
		}
		if c := min(2*int64(cap(b)), size+1); c > int64(cap(b)) {
			b = append(make([]byte, 0, c), b...)
		} else {
			b = append(b, 0)[:len(b)] // longer than declared
		}
	}
}
