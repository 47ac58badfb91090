package cachekey

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"mao/internal/corpus"
)

// referenceDecode is the decoder DecodeOptimizeRequest replaced, kept
// as its oracle: encoding/json's Decoder over the body, rejecting
// unknown fields, decoding the first value.
func referenceDecode(body []byte) (*OptimizeRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req OptimizeRequest
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	return &req, nil
}

// agree decodes body with both decoders and fails t unless they accept
// or reject it alike and, when they accept, yield equal requests whose
// keys agree. It returns the decoder's request (nil when rejected).
func agree(t *testing.T, body []byte) *OptimizeRequest {
	t.Helper()
	got, err := DecodeOptimizeRequest(body)
	want, werr := referenceDecode(body)
	if (err == nil) != (werr == nil) {
		t.Fatalf("body %q:\n decoder error:       %v\n encoding/json error: %v", body, err, werr)
	}
	if err != nil {
		return nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q:\n decoder:       %#v\n encoding/json: %#v", body, got, want)
	}
	if want.Source != "" {
		ref := Key(Request{Name: want.Name, Source: want.Source, Spec: want.Spec,
			Check: want.Options.Check, Explain: want.Options.Explain, Verify: want.Options.Verify})
		if k := got.Key(); k != ref {
			t.Fatalf("body %q: key %s, want %s", body, k, ref)
		}
	}
	return got
}

// corpusBodies encodes the corpus templates at the given scales as
// optimize bodies, the two ways the fleet's drivers encode them: as
// maoledger does (a struct, options always present) and as maoload
// does (a map, so keys sorted). json.Marshal escapes <, > and & as
// \u003c-style sequences.
func corpusBodies(scales ...float64) [][]byte {
	type ledgerBody struct {
		Name    string `json:"name"`
		Source  string `json:"source"`
		Spec    string `json:"spec"`
		Options struct {
			Check  bool `json:"check,omitempty"`
			Verify bool `json:"verify,omitempty"`
		} `json:"options,omitempty"`
	}
	var out [][]byte
	for _, scale := range scales {
		ws := append(corpus.Spec2000Int(scale), corpus.Spec2006Subset(scale)...)
		for i, w := range ws {
			name := fmt.Sprintf("w%d_%s.s", i, w.Name)
			src := corpus.Generate(w)
			lb := ledgerBody{Name: name, Source: src, Spec: "REDZEXT:REDTEST:REDMOV:ADDADD:SCHED:LOOP16"}
			lb.Options.Check, lb.Options.Verify = i%3 == 0, i%3 == 0
			ledger, err := json.Marshal(lb)
			if err != nil {
				panic(err)
			}
			load, err := json.Marshal(map[string]any{
				"name": name, "source": src, "spec": "REDTEST",
				"options": map[string]any{"check": i%2 == 0, "no_cache": i%4 == 0},
			})
			if err != nil {
				panic(err)
			}
			out = append(out, ledger, load)
		}
	}
	return out
}

// The corpus bodies the differential and the benchmark decode: the 19
// templates at scales 0.1–0.4, the sizes the benchmark workloads send.
var corpusScales = []float64{0.1, 0.2, 0.3, 0.4}

// handCases are bodies at the edges of the JSON grammar and of
// encoding/json's decoding rules, each with whether it decodes.
var handCases = []struct {
	body string
	ok   bool
}{
	{`{"source":"x"}`, true},
	{" \t\r\n{ \"source\" : \"x\" , \"spec\" : \"A\" } ", true},
	{`{}`, true},
	{`{ }`, true},

	// \u escapes, surrogate pairs and lone surrogates.
	{`{"source":"\u0041\u00e9\u4e2d\u003c\u003e\u0026"}`, true},
	{`{"source":"\ud83d\ude00"}`, true},
	{`{"source":"\uD83D\uDE00"}`, true},
	{`{"source":"\ud83d"}`, true},
	{`{"source":"\ude00"}`, true},
	{`{"source":"\ud83d\u0041"}`, true},
	{`{"source":"\ud83d\ud83d\ude00"}`, true},
	{`{"source":"\ude00\ud83d"}`, true},
	{`{"source":"\ud83dx"}`, true},
	{`{"source":"\u0000\u001f"}`, true},
	{`{"source":"\"\\\/\b\f\n\r\t"}`, true},
	{`{"source":"\ud83d\uZZZZ"}`, false},
	{`{"source":"\u00"}`, false},
	{`{"source":"\u00g0"}`, false},
	{`{"source":"\x41"}`, false},
	{`{"source":"\'"}`, false},
	{`{"source":"\`, false},

	// Invalid UTF-8 becomes U+FFFD, byte by byte; valid UTF-8 stays.
	{"{\"source\":\"a\xffb\"}", true},
	{"{\"source\":\"\xed\xa0\x80\"}", true},
	{"{\"source\":\"\xc3\"}", true},
	{"{\"source\":\"\xc0\xaf\"}", true},
	{"{\"source\":\"\xef\xbf\xbd\xe4\xb8\xad\xf0\x9f\x98\x80\"}", true},
	{"{\"source\":\"x\",\"name\":\"\xff\\n\xfe\"}", true},

	// Raw control bytes are rejected; DEL is not a control byte.
	{"{\"source\":\"a\tb\"}", false},
	{"{\"source\":\"a\nb\"}", false},
	{"{\"source\":\"\x00\"}", false},
	{"{\"source\":\"\x1f\"}", false},
	{"{\"source\":\"\x7f\"}", true},

	// Duplicate keys: the last wins; a second options object merges.
	{`{"source":"a","source":"b"}`, true},
	{`{"options":{"check":true},"options":{"verify":true}}`, true},
	{`{"options":{"check":true},"options":{"check":false}}`, true},
	{`{"options":{"check":true},"options":null}`, true},
	{`{"options":{"check":true,"check":false,"check":true}}`, true},

	// Keys match under case folding, escaped or not.
	{`{"SOURCE":"x"}`, true},
	{`{"Source":"x","sPeC":"A","NAME":"n"}`, true},
	{`{"ſource":"x"}`, true},
	{`{"\u017fource":"x"}`, true},
	{`{"sourc\u0065":"x"}`, true},
	{`{"sourc\u0045":"x"}`, true},
	{`{"options":{"chec\u212a":true,"NO_CACHE":true,"Deadline_MS":5}}`, true},
	{`{"OPTIONS":{"ExPlAiN":true,"VERIFY":true,"Trace":"spans"}}`, true},
	{`{"source":"x","İd":1}`, false},
	{`{"sourcе":"x"}`, false}, // Cyrillic е
	{`{"source\u0000":"x"}`, false},
	{"{\"sour\xffce\":\"x\"}", false},
	{`{"deadline_msx":1}`, false},

	// null leaves a field as it was.
	{`{"source":"x","name":null}`, true},
	{`{"name":"a","name":null,"source":"x"}`, true},
	{`{"options":null}`, true},
	{`{"options":{"deadline_ms":null,"trace":null,"check":null}}`, true},
	{`{"options":{"check":true},"options":{"check":null}}`, true},

	// Values of the wrong type.
	{`{"source":1}`, false},
	{`{"source":true}`, false},
	{`{"source":["x"]}`, false},
	{`{"source":{}}`, false},
	{`{"name":false}`, false},
	{`{"options":[]}`, false},
	{`{"options":"x"}`, false},
	{`{"options":true}`, false},
	{`{"options":{"check":"true"}}`, false},
	{`{"options":{"check":1}}`, false},
	{`{"options":{"deadline_ms":"5"}}`, false},
	{`{"options":{"deadline_ms":true}}`, false},
	{`{"options":{"trace":1}}`, false},

	// deadline_ms is an int64 literal.
	{`{"options":{"deadline_ms":1500}}`, true},
	{`{"options":{"deadline_ms":0}}`, true},
	{`{"options":{"deadline_ms":-0}}`, true},
	{`{"options":{"deadline_ms":-1}}`, true},
	{`{"options":{"deadline_ms":9223372036854775807}}`, true},
	{`{"options":{"deadline_ms":-9223372036854775808}}`, true},
	{`{"options":{"deadline_ms":9223372036854775808}}`, false},
	{`{"options":{"deadline_ms":-9223372036854775809}}`, false},
	{`{"options":{"deadline_ms":99999999999999999999}}`, false},
	{`{"options":{"deadline_ms":1e3}}`, false},
	{`{"options":{"deadline_ms":1E3}}`, false},
	{`{"options":{"deadline_ms":1.0}}`, false},
	{`{"options":{"deadline_ms":0.5}}`, false},
	{`{"options":{"deadline_ms":01}}`, false},
	{`{"options":{"deadline_ms":-}}`, false},
	{`{"options":{"deadline_ms":1.}}`, false},
	{`{"options":{"deadline_ms":.5}}`, false},
	{`{"options":{"deadline_ms":+1}}`, false},
	{`{"options":{"deadline_ms":--1}}`, false},

	// Unknown fields, at either level.
	{`{"source":"x","extra":1}`, false},
	{`{"source":"x","extra":null}`, false},
	{`{"options":{"foo":true}}`, false},
	{`{"options":{"source":"x"}}`, false},
	{`{"check":true}`, false},

	// The top-level value.
	{`null`, true},
	{` null `, true},
	{`nullx`, true},
	{`{}x`, true},
	{`{"source":"x"} {"source":"y"}`, true},
	{`{"source":"x"}garbage`, true},
	{`[]`, false},
	{`[{"source":"x"}]`, false},
	{`1`, false},
	{`"x"`, false},
	{`true`, false},
	{`nul`, false},
	{`nulL`, false},
	{"\xef\xbb\xbf{}", false},
	{"\f{}", false},

	// Empty and truncated bodies, and other malformed objects.
	{``, false},
	{`   `, false},
	{`{`, false},
	{`{"source"`, false},
	{`{"source":`, false},
	{`{"source":"x`, false},
	{`{"source":"x"`, false},
	{`{"source":"x",`, false},
	{`{"source":"x",}`, false},
	{`{,}`, false},
	{`{"source" "x"}`, false},
	{`{"source":"x" "spec":"y"}`, false},
	{`{source:"x"}`, false},
	{`{'source':'x'}`, false},
	{`{"options":{"check":tr}}`, false},
	{`{"options":{"check":truex}}`, false},
	{`{"options":{"check":true`, false},
	{`{"options":{"check":true}`, false},
}

func TestDecodeHandCases(t *testing.T) {
	for _, c := range handCases {
		req := agree(t, []byte(c.body))
		if (req != nil) != c.ok {
			t.Errorf("body %q: decoded = %v, want %v", c.body, req != nil, c.ok)
		}
	}
	// A few values spelled out, beyond agreeing with the reference.
	for body, want := range map[string]OptimizeRequest{
		`{"ſource":"a\ud83d\ude00\ud83d"}`: {Source: "a\U0001F600\uFFFD"},
		"{\"source\":\"\xff\"}":            {Source: "\uFFFD"},
		`{"options":{"check":true},"options":{"verify":true,"deadline_ms":-0}}`: {
			Options: OptimizeOptions{Check: true, Verify: true}},
		`{"name":"a","name":null,"source":"s"}`: {Name: "a", Source: "s"},
	} {
		got, err := DecodeOptimizeRequest([]byte(body))
		if err != nil || *got != want {
			t.Errorf("body %q: got %+v, %v; want %+v", body, got, err, want)
		}
	}
}

// TestDecodeCorpusBodies holds the decoder to the reference on every
// corpus body, as the fleet's drivers encode them.
func TestDecodeCorpusBodies(t *testing.T) {
	for _, body := range corpusBodies(corpusScales...) {
		if agree(t, body) == nil {
			t.Fatalf("corpus body rejected: %.80q", body)
		}
	}
}

// TestDecodeAllocs pins the decoder's allocations: the request, and one
// per non-empty string value, whatever the body's size.
func TestDecodeAllocs(t *testing.T) {
	bodies := append(corpusBodies(0.1, 0.4),
		[]byte(`{"source":"x"}`),
		[]byte(`{"name":"a\u00e9.s","source":"\tret\n","spec":"REDTEST","options":{"check":true,"trace":"spans"}}`))
	for _, body := range bodies {
		req, err := DecodeOptimizeRequest(body)
		if err != nil {
			t.Fatal(err)
		}
		strs := 0
		for _, s := range []string{req.Name, req.Source, req.Spec, req.Options.Trace} {
			if s != "" {
				strs++
			}
		}
		allocs := testing.AllocsPerRun(20, func() { DecodeOptimizeRequest(body) })
		if want := float64(strs + 1); allocs > want {
			t.Errorf("%d-byte body with %d strings: %.0f allocations, want at most %.0f",
				len(body), strs, allocs, want)
		}
	}
}

func FuzzDecodeOptimizeRequest(f *testing.F) {
	for _, c := range handCases {
		f.Add([]byte(c.body))
	}
	for _, body := range corpusBodies(0.1) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) { agree(t, body) })
}

// BenchmarkDecodeOptimizeRequest decodes every corpus body per
// iteration; MB/s is over the bodies' bytes. The encoding-json case is
// the decoder both tiers used before, for scale.
func BenchmarkDecodeOptimizeRequest(b *testing.B) {
	bodies := corpusBodies(corpusScales...)
	total := 0
	for _, body := range bodies {
		total += len(body)
	}
	for _, bc := range []struct {
		name   string
		decode func([]byte) (*OptimizeRequest, error)
	}{
		{"one-pass", DecodeOptimizeRequest},
		{"encoding-json", referenceDecode},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(total))
			b.ReportAllocs()
			for range b.N {
				for _, body := range bodies {
					if _, err := bc.decode(body); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(bodies)), "us/body")
		})
	}
}

// TestJSONBody pins the Content-Type rule both tiers share.
func TestJSONBody(t *testing.T) {
	for ct, want := range map[string]bool{
		"application/json":                  true,
		"application/json; charset=utf-8":   true,
		"application/x-www-form-urlencoded": true,
		"text/plain":                        true,
		"":                                  true,
		"application/octet-stream":          false,
		"application/octet-stream; x=y":     false,
	} {
		if got := JSONBody(ct); got != want {
			t.Errorf("JSONBody(%q) = %v, want %v", ct, got, want)
		}
	}
}
