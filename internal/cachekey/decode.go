package cachekey

import (
	"bytes"
	"fmt"
	"math"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"
)

// DecodeOptimizeRequest decodes a JSON optimize body in one pass over
// its bytes. It accepts exactly the bodies that encoding/json's
// Decoder, with DisallowUnknownFields, decodes into an OptimizeRequest
// without error, and yields the same request (FuzzDecodeOptimizeRequest
// and the corpus differential hold it to that):
//
//   - a key names a field exactly or under encoding/json's case
//     folding ("SOURCE" and "ſource" are source); any other key is an
//     error;
//   - a key given twice keeps its last value, and a second options
//     object merges into the first;
//   - null leaves a field as it was, and a top-level null decodes to
//     the zero request;
//   - \u escapes decode, surrogate pairs included; a lone surrogate and
//     every byte of invalid UTF-8 become U+FFFD;
//   - deadline_ms must be an integer literal within int64;
//   - bytes after the first value are not read.
//
// It allocates the request and one string per non-empty string value
// (a string that invalid UTF-8 makes longer than its text may take
// more).
func DecodeOptimizeRequest(body []byte) (*OptimizeRequest, error) {
	d := decoder{b: body}
	req := new(OptimizeRequest)
	d.space()
	var err error
	switch d.peek() {
	case '{':
		err = d.object(req, false)
	case 'n':
		err = d.literal("null")
	default:
		err = d.mismatch("the request")
	}
	if err != nil {
		return nil, err
	}
	return req, nil
}

// The fields, each spelled as encoding/json folds a key to match it:
// ASCII letters upper-cased. The request's own come first, then the
// options'.
const (
	fName = iota
	fSource
	fSpec
	fOptions
	fCheck
	fDeadline
	fNoCache
	fExplain
	fVerify
	fTrace
	numFields
)

var fieldNames = [numFields]string{
	"NAME", "SOURCE", "SPEC", "OPTIONS",
	"CHECK", "DEADLINE_MS", "NO_CACHE", "EXPLAIN", "VERIFY", "TRACE",
}

// maxFieldName is the length of the longest field name: a key that
// folds to more bytes names no field.
const maxFieldName = len("DEADLINE_MS")

type decoder struct {
	b []byte
	i int
}

// peek returns the byte at the cursor, 0 at the end of the body (0
// never starts a token, so every caller's default branch rejects it).
func (d *decoder) peek() byte {
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

func (d *decoder) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// fail reports why the body is not an optimize request, and where.
func (d *decoder) fail(at int, format string, args ...any) error {
	return fmt.Errorf("%s at offset %d", fmt.Sprintf(format, args...), at)
}

// syntax reports a malformed body at the cursor.
func (d *decoder) syntax(context string) error {
	if d.i >= len(d.b) {
		return d.fail(d.i, "unexpected end of JSON input")
	}
	return d.fail(d.i, "invalid character %q %s", d.b[d.i], context)
}

// mismatch reports a value at the cursor that the field it is given
// to cannot hold, or that is not a value at all.
func (d *decoder) mismatch(field string) error {
	var kind string
	switch c := d.peek(); {
	case c == '"':
		kind = "string"
	case c == '{':
		kind = "object"
	case c == '[':
		kind = "array"
	case c == 't' || c == 'f':
		kind = "bool"
	case c == 'n':
		kind = "null"
	case c == '-' || '0' <= c && c <= '9':
		kind = "number"
	default:
		return d.syntax("looking for beginning of value")
	}
	return d.fail(d.i, "cannot decode %s into %s", kind, field)
}

// literal consumes lit (true, false or null).
func (d *decoder) literal(lit string) error {
	for k := 0; k < len(lit); k++ {
		if d.i >= len(d.b) || d.b[d.i] != lit[k] {
			return d.syntax("in literal " + lit)
		}
		d.i++
	}
	return nil
}

// object decodes the object at the cursor into req: the request's own
// fields, or, inside an options object, the options'.
func (d *decoder) object(req *OptimizeRequest, options bool) error {
	lo, hi := fName, fCheck
	if options {
		lo, hi = fCheck, numFields
	}
	d.i++ // '{'
	d.space()
	if d.peek() == '}' {
		d.i++
		return nil
	}
	for {
		f, err := d.key(lo, hi)
		if err != nil {
			return err
		}
		d.space()
		if d.peek() != ':' {
			return d.syntax("after object key")
		}
		d.i++
		d.space()
		if err := d.value(req, f); err != nil {
			return err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.i++
			d.space()
		case '}':
			d.i++
			return nil
		default:
			return d.syntax("after object key:value pair")
		}
	}
}

// key decodes the key at the cursor and returns the field in [lo, hi)
// it names. It folds the key rune by rune as encoding/json does (ASCII
// letters upper-cased, any other rune to the smallest rune of its case
// orbit, so U+017F ſ is S and U+212A K is K), without building it.
func (d *decoder) key(lo, hi int) (int, error) {
	if d.peek() != '"' {
		return 0, d.syntax("looking for beginning of object key string")
	}
	start := d.i
	var fold [maxFieldName]byte
	n, match := 0, true
	for d.i++; ; {
		if d.i >= len(d.b) {
			return 0, d.syntax("in string literal")
		}
		c := d.b[d.i]
		r, size := rune(c), 1
		switch {
		case c == '"':
			d.i++
			if match {
				for f := lo; f < hi; f++ {
					if fieldNames[f] == string(fold[:n]) {
						return f, nil
					}
				}
			}
			return 0, d.fail(start, "unknown field %s", d.b[start:d.i])
		case c == '\\':
			var ok bool
			if r, size, ok = escape(d.b, d.i); !ok {
				return 0, d.syntax("in string escape code")
			}
		case c < 0x20:
			return 0, d.syntax("in string literal")
		case c >= utf8.RuneSelf:
			r, size = utf8.DecodeRune(d.b[d.i:]) // invalid UTF-8 is RuneError
		}
		d.i += size
		if 'a' <= r && r <= 'z' {
			r -= 'a' - 'A'
		} else if r >= utf8.RuneSelf {
			r = foldRune(r)
		}
		if r >= utf8.RuneSelf || n == len(fold) {
			match = false
		} else {
			fold[n] = byte(r)
			n++
		}
	}
}

// foldRune returns the smallest rune of r's case orbit, as
// encoding/json folds a key's non-ASCII runes.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// value decodes the value at the cursor into field f of req.
func (d *decoder) value(req *OptimizeRequest, f int) error {
	o := &req.Options
	switch f {
	case fName:
		return d.str(&req.Name, "name")
	case fSource:
		return d.str(&req.Source, "source")
	case fSpec:
		return d.str(&req.Spec, "spec")
	case fTrace:
		return d.str(&o.Trace, "options.trace")
	case fCheck:
		return d.flag(&o.Check, "options.check")
	case fNoCache:
		return d.flag(&o.NoCache, "options.no_cache")
	case fExplain:
		return d.flag(&o.Explain, "options.explain")
	case fVerify:
		return d.flag(&o.Verify, "options.verify")
	case fDeadline:
		return d.integer(&o.DeadlineMS, "options.deadline_ms")
	}
	switch d.peek() { // fOptions
	case '{':
		return d.object(req, true)
	case 'n':
		return d.literal("null")
	}
	return d.mismatch("options")
}

func (d *decoder) flag(dst *bool, field string) error {
	switch d.peek() {
	case 't':
		*dst = true // a malformed literal fails the whole decode
		return d.literal("true")
	case 'f':
		*dst = false
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	return d.mismatch(field)
}

// integer decodes an integer literal. A fraction or an exponent is an
// error even when the value is integral (1.0, 1e3), as it is for
// encoding/json; -0 is 0.
func (d *decoder) integer(dst *int64, field string) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.literal("null")
	case c != '-' && (c < '0' || c > '9'):
		return d.mismatch(field)
	}
	start := d.i
	neg := d.b[d.i] == '-'
	if neg {
		d.i++
	}
	if c := d.peek(); c < '0' || c > '9' {
		return d.syntax("in numeric literal")
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	var u uint64
	over := false
	if d.b[d.i] == '0' {
		d.i++ // a leading zero stands alone; a digit after it is a syntax error
	} else {
		for ; d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9'; d.i++ {
			dg := uint64(d.b[d.i] - '0')
			if u > (limit-dg)/10 {
				over = true
			}
			u = u*10 + dg
		}
	}
	if c := d.peek(); over || c == '.' || c == 'e' || c == 'E' {
		return d.fail(start, "cannot decode number into %s: not an int64 literal", field)
	}
	if neg {
		u = -u
	}
	*dst = int64(u)
	return nil
}

// str decodes a string value into dst.
func (d *decoder) str(dst *string, field string) error {
	switch d.peek() {
	case '"':
	case 'n':
		return d.literal("null")
	default:
		return d.mismatch(field)
	}
	start := d.i + 1
	end := closingQuote(d.b, start)
	if end < 0 {
		d.i = len(d.b)
		return d.syntax("in string literal")
	}
	raw := d.b[start:end]
	if plainRun(raw) == len(raw) {
		*dst = string(raw)
		d.i = end + 1
		return nil
	}
	s, bad := unquote(raw)
	if bad >= 0 {
		d.i = start + bad
		return d.syntax("in string literal")
	}
	*dst = s
	d.i = end + 1
	return nil
}

// closingQuote returns the index of the quote that ends the string
// whose body starts at b[i], or -1: the first quote after i that no odd
// run of backslashes escapes. The run stops at the opening quote.
func closingQuote(b []byte, i int) int {
	for {
		j := bytes.IndexByte(b[i:], '"')
		if j < 0 {
			return -1
		}
		j += i
		k := j
		for b[k-1] == '\\' {
			k--
		}
		if (j-k)%2 == 0 {
			return j
		}
		i = j + 1
	}
}

// unquote decodes and validates a string body that holds no unescaped
// quote, in one pass and one allocation: escapes only shrink the text,
// so its length bounds the result's (invalid UTF-8, which grows to
// U+FFFD, may reallocate). bad is the offset of the first byte the body
// may not hold, or -1.
func unquote(raw []byte) (s string, bad int) {
	buf := make([]byte, 0, len(raw))
	for i := 0; i < len(raw); {
		run := plainRun(raw[i:])
		buf = append(buf, raw[i:i+run]...)
		if i += run; i == len(raw) {
			break
		}
		switch c := raw[i]; {
		case c == '\\':
			if i+1 < len(raw) && unescaped[raw[i+1]] != 0 {
				buf = append(buf, unescaped[raw[i+1]])
				i += 2
				continue
			}
			r, size, ok := escape(raw, i)
			if !ok {
				return "", i
			}
			buf = utf8.AppendRune(buf, r)
			i += size
		case c < 0x20:
			return "", i
		default:
			r, size := utf8.DecodeRune(raw[i:])
			if r == utf8.RuneError && size == 1 {
				buf = utf8.AppendRune(buf, r) // invalid UTF-8 becomes U+FFFD
			} else {
				buf = append(buf, raw[i:i+size]...)
			}
			i += size
		}
	}
	// buf is never written again: the string takes it over instead of
	// copying it.
	return unsafe.String(unsafe.SliceData(buf), len(buf)), -1
}

// plain marks the bytes a string copies through unchanged: printable
// ASCII other than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// plainRun returns the length of the run of plain bytes s starts with.
func plainRun(s []byte) int {
	i := 0
	for i < len(s) && plain[s[i]] {
		i++
	}
	return i
}

// unescaped maps the byte after a backslash to the byte its two-byte
// escape stands for; 0 for u (see escape) and for the bytes that
// escape nothing.
var unescaped = [256]byte{'"': '"', '\\': '\\', '/': '/',
	'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// escape decodes the escape sequence at s[i] ('\\') into its rune and
// length, as encoding/json does: a surrogate pair is one rune, and a
// surrogate without its pair is U+FFFD. ok is false for a malformed
// escape.
func escape(s []byte, i int) (r rune, size int, ok bool) {
	if i+1 >= len(s) {
		return 0, 0, false
	}
	if e := unescaped[s[i+1]]; e != 0 {
		return rune(e), 2, true
	}
	r = hex4(s, i+2)
	if s[i+1] != 'u' || r < 0 {
		return 0, 0, false
	}
	if !utf16.IsSurrogate(r) {
		return r, 6, true
	}
	if i+7 < len(s) && s[i+6] == '\\' && s[i+7] == 'u' {
		if r2 := hex4(s, i+8); r2 >= 0 {
			if pair := utf16.DecodeRune(r, r2); pair != unicode.ReplacementChar {
				return pair, 12, true
			}
		}
	}
	return unicode.ReplacementChar, 6, true
}

// hex4 returns the value of the four hex digits at s[i:], or -1.
func hex4(s []byte, i int) rune {
	if i+4 > len(s) {
		return -1
	}
	var r rune
	for _, c := range s[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
