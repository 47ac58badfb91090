package scope

import (
	"strings"
	"testing"
)

// FuzzParseHeader fuzzes the X-Mao-Trace parser, which reads a request
// header. Invariants under arbitrary input: ParseHeader never panics,
// and every value it accepts is a valid context that renders back to
// exactly that value.
func FuzzParseHeader(f *testing.F) {
	for _, seed := range []string{
		"",
		"4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",
		"4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000",
		"4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7",
		"4bf92f3577b34da6a3ce929d0e0e4736_00f067aa0ba902b7",
		"4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v string) {
		c, ok := ParseHeader(v)
		if !ok {
			return
		}
		if !c.Valid() {
			t.Fatalf("ParseHeader(%q) accepted an invalid context %+v", v, c)
		}
		if h := c.Header(); h != v {
			t.Fatalf("ParseHeader(%q).Header() = %q", v, h)
		}
	})
}

// FuzzParseProm fuzzes the exposition parser maotop feeds from the
// network. Invariants under arbitrary input: ParseProm never panics on
// a page, and a page whose label values are written with PromQuote
// parses back to those values (invalid UTF-8 replaced by U+FFFD).
func FuzzParseProm(f *testing.F) {
	f.Add(promPage, "tenant-a", "")
	f.Add("m{a=\"\\t\"} 1\n", "a\tb", "x\xffy")
	f.Add("# HELP m x\nm{le=\"+Inf\"} NaN\n", "nbsp\u00a0z", `q"uote\slash`)
	f.Add("m{a=\"x\\\n", "line\nfeed", "} 1\nm 2")
	f.Fuzz(func(t *testing.T, page, a, b string) {
		ParseProm(strings.NewReader(page)) // must not panic

		line := "m{a=" + PromQuote(a) + ",b=" + PromQuote(b) + "} 1\n"
		m, err := ParseProm(strings.NewReader(line))
		if err != nil {
			t.Fatalf("ParseProm rejects %q: %v", line, err)
		}
		got := m["m"]
		if len(got) != 1 || got[0].Value != 1 {
			t.Fatalf("ParseProm(%q) = %+v, want one sample of value 1", line, got)
		}
		for k, v := range map[string]string{"a": a, "b": b} {
			if want := strings.ToValidUTF8(v, "\uFFFD"); got[0].Labels[k] != want {
				t.Fatalf("label %s: wrote %q, read back %q, want %q", k, v, got[0].Labels[k], want)
			}
		}
	})
}
