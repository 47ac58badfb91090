package serve

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzParseArchive fuzzes the maoar1 framing parser, which reads
// request bodies straight off the network. Small caps keep the limit
// checks within the fuzzer's reach. Invariants under arbitrary input:
//
//  1. parseArchive never panics — malformed framing is an error.
//  2. It never returns more than maxUnits units, a source longer than
//     maxSource, or a name outside 1..maxArchiveNameLen bytes.
//  3. What it accepts re-frames losslessly: framing the parsed units
//     canonically and parsing again yields the same units.
func FuzzParseArchive(f *testing.F) {
	const maxUnits, maxSource = 4, 512
	units := func(names ...string) []archiveUnit {
		var out []archiveUnit
		for _, n := range names {
			out = append(out, archiveUnit{name: n, source: testSource})
		}
		return out
	}
	// The bodies the archive tests post, plus framing corners.
	for _, seed := range [][]byte{
		buildArchive(units("a.s", "b.s", "c.s")),
		buildArchive(units("u0.s", "u1.s", "u2.s", "u3.s", "u4.s")),
		buildArchive([]archiveUnit{
			{name: "good.s", source: testSource},
			{name: "bad.s", source: "\tthisisnotx86 %zz9, %qq3\n"},
		}),
		nil,
		[]byte("not a header\n"),
		[]byte("maoar9 1 1\nab"),
		[]byte("maoar1 3 100\nabc"),
		[]byte("maoar1 0 3\nabc"),
		[]byte("maoar1 1 0\nx"),
		[]byte("maoar1 1 13\nxmaoar1 1 1\nyz"),
		[]byte("maoar1 -1 3\nabc"),
		[]byte("maoar1 1 2 trailing\nxab"),
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := parseArchive(bytes.NewReader(body), maxUnits, maxSource)
		if err != nil {
			return
		}
		if len(got) > maxUnits {
			t.Fatalf("accepted %d units over the %d cap", len(got), maxUnits)
		}
		for i, u := range got {
			if len(u.source) > maxSource {
				t.Fatalf("unit %d: %d-byte source over the %d cap", i, len(u.source), maxSource)
			}
			if len(u.name) == 0 || len(u.name) > maxArchiveNameLen {
				t.Fatalf("unit %d: name length %d out of range", i, len(u.name))
			}
		}
		again, err := parseArchive(bytes.NewReader(buildArchive(got)), maxUnits, maxSource)
		if err != nil {
			t.Fatalf("re-framed archive rejected: %v", err)
		}
		if !slices.Equal(again, got) {
			t.Fatalf("re-framing changed the units:\n%q\n%q", got, again)
		}
	})
}
