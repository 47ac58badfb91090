package main

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"

	"mao/internal/corpus"
)

// The two pass specs the workloads send. layoutSpec ends in LOOP16, a
// unit-level layout pass, so its memo keys fold in the whole unit;
// localSpec is all function-local passes, so its memo keys are
// per-function content.
const (
	layoutSpec = "REDZEXT:REDTEST:REDMOV:ADDADD:SCHED:LOOP16"
	localSpec  = "REDZEXT:REDTEST:REDMOV:ADDADD:SCHED"
)

// workloadNames lists the workloads in the order the steadiness mode
// runs them.
var workloadNames = []string{"cold-unique", "zipf-repeat", "edit-resubmit", "archive-verify"}

// Shape of one round of each workload. Counts are multiples of the
// 19 corpus templates so every template appears equally often in every
// round, whatever the seed: the seed then changes only the generated
// code inside each template, not the mix of unit sizes, which keeps
// per-seed totals close together.
const (
	coldUnits    = 342  // 18 per template
	zipfRequests = 1520 // one in eight is a first touch
	editPool     = 19   // one base unit per template
	editRequests = 570  // 30 per pool unit
	versionRun   = 6    // edit-resubmit: a new version, then five resubmits of it
	archiveCount = 114  // 342 units, 19 templates x 18; a round's p99 is its second-slowest archive
	archiveUnits = 3    // units per archive
	warmRequests = 57   // fixed warm-up inside set-up (19 x 3)
	warmArchives = 19   // 57 units
	zipfSkew     = 1.1  // zipf exponent of the resubmits
	pairEvery    = 4    // every fourth first touch is sent twice back to back
	tripDivisor  = 20   // shrinks hot-loop trip counts: pipeline work is static, exec work is not
)

// Corpus scales set a unit's cold-function count. Units are drawn at
// scales spread evenly over a range, so unit sizes form a continuous
// tail rather than a few clusters: a tail percentile then sits in a
// dense part of the distribution, not at the edge of a cluster.
const (
	minScale     = 0.1
	maxScale     = 0.4
	maxScaleArch = 0.25 // archives are validated pass by pass; smaller units keep the tail sampled
	editScale    = 0.2  // the edit-resubmit pool's base units
)

// kind classifies a request by the cache path it is designed to take.
type kind int

const (
	kindCold     kind = iota // never-seen unit: misses every tier
	kindFirst                // zipf-repeat: first touch of a pool unit
	kindPair                 // zipf-repeat: back-to-back copy of a first touch
	kindRepeat               // zipf-repeat: resubmit, a result-cache hit
	kindIntro                // edit-resubmit: first submission of a pool unit
	kindResubmit             // edit-resubmit: unchanged under a fresh name, mostly memo hits
	kindEdit                 // edit-resubmit: one function changed, a memo miss
	kindArchive              // archive-verify: a maoar1 archive of fresh units
)

// unit is one generated assembly unit.
type unit struct {
	Name    string // file name sent with the request
	Source  string
	Entry   string // runnable entry function, for the exec check
	Tmpl    int    // corpus template index
	Stratum int    // scale rank among the units of its template (0 = smallest)
}

// request is one operation of a workload: a single unit, or the
// members of one archive.
type request struct {
	Kind  kind
	Units []unit
}

// workload is one seeded traffic mix. Every round replays Timed on a
// fresh fleet after a set-up that ends with Warm; Sample is the fixed
// set of distinct units whose optimized code is executed and simulated.
type workload struct {
	Name    string
	Spec    string
	Archive bool // requests are archives sent with verify=1&check=1
	Timed   []request
	Warm    []request
	Sample  []unit
}

// gen draws units from the corpus templates.
type gen struct {
	rng    *rand.Rand
	prefix string // keeps warm-up and timed units disjoint
	next   int
}

func newGen(seed uint64, stream uint64, prefix string) *gen {
	return &gen{rng: rand.New(rand.NewPCG(seed, stream)), prefix: prefix}
}

// templates returns the corpus's SPEC-shaped workloads at scale.
func templates(scale float64) []corpus.Workload {
	return append(corpus.Spec2000Int(scale), corpus.Spec2006Subset(scale)...)
}

// numTemplates is how many templates the corpus offers.
var numTemplates = len(templates(1))

// unit renders a fresh unit of template t at the given scale: a new
// seed and a new name, so its code (labels included) was never seen
// before.
func (g *gen) unit(t int, scale float64, stratum int) unit {
	w := templates(scale)[t]
	w.Hot = append([]corpus.Hotspot(nil), w.Hot...)
	for i := range w.Hot {
		if w.Hot[i].Trips > 0 {
			w.Hot[i].Trips = max(2, w.Hot[i].Trips/tripDivisor)
		}
		if w.Hot[i].Entries > 0 {
			w.Hot[i].Entries = max(1, w.Hot[i].Entries/tripDivisor)
		}
	}
	w.Seed = g.rng.Uint64()
	w.Name = fmt.Sprintf("%s%d_%s", g.prefix, g.next, w.Name)
	g.next++
	return unit{Name: w.Name + ".s", Source: corpus.Generate(w), Entry: w.EntryName(), Tmpl: t, Stratum: stratum}
}

// balanced returns n fresh units cycling through every template, each
// template's units at scales spread evenly over [minScale, hi], in
// seeded order.
func (g *gen) balanced(n int, hi float64) []unit {
	per := (n + numTemplates - 1) / numTemplates
	out := make([]unit, n)
	for i := range out {
		k := i / numTemplates
		out[i] = g.unit(i%numTemplates, minScale+(hi-minScale)*(float64(k)+0.5)/float64(per), k)
	}
	g.rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// buildWorkload generates the named workload's inputs from seed.
func buildWorkload(name string, seed uint64) (*workload, error) {
	timed := newGen(seed, 1, "t")
	warm := newGen(seed, 2, "w")
	w := &workload{Name: name, Spec: layoutSpec}
	switch name {
	case "cold-unique":
		w.Timed = coldRequests(timed, coldUnits)
		w.Warm = coldRequests(warm, warmRequests)
	case "zipf-repeat":
		w.Timed = zipfSequence(timed, zipfRequests)
		w.Warm = zipfSequence(warm, warmRequests)
	case "edit-resubmit":
		w.Spec = localSpec
		w.Timed = editSequence(timed, editPool, editRequests)
		w.Warm = editSequence(warm, editPool, warmRequests)
	case "archive-verify":
		w.Archive = true
		w.Timed = archives(timed, archiveCount)
		w.Warm = archives(warm, warmArchives)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	w.Sample = sample(w.Timed)
	return w, nil
}

func coldRequests(g *gen, n int) []request {
	out := make([]request, n)
	for i, u := range g.balanced(n, maxScale) {
		out[i] = request{Kind: kindCold, Units: []unit{u}}
	}
	return out
}

// zipfSequence builds n requests of which exactly n/8 are first touches
// of new pool units (every pairEvery-th one sent twice back to back,
// so both connections carry the same new unit at once) and the rest
// are zipf-skewed resubmits of units already touched, the earliest
// touched being the most popular. Units are touched in a fixed
// template-and-scale order, so the popular units have the same
// templates and sizes whatever the seed: the seed changes their code
// and the request order, not how much work a resubmit costs.
func zipfSequence(g *gen, n int) []request {
	firsts := n / 8
	pool := g.balanced(firsts, maxScale)
	slices.SortFunc(pool, func(a, b unit) int { return cmp.Or(a.Stratum-b.Stratum, a.Tmpl-b.Tmpl) })
	pairs := (firsts + pairEvery - 1) / pairEvery
	// Events: first touches (with their pairs) and repeats, shuffled,
	// except that the sequence must open with a first touch.
	events := make([]bool, n-pairs) // true = first touch
	for i := 0; i < firsts; i++ {
		events[i] = true
	}
	g.rng.Shuffle(len(events)-1, func(i, j int) { events[i+1], events[j+1] = events[j+1], events[i+1] })
	out := make([]request, 0, n)
	touched := 0
	for _, first := range events {
		if first {
			u := pool[touched]
			out = append(out, request{Kind: kindFirst, Units: []unit{u}})
			if touched%pairEvery == 0 {
				out = append(out, request{Kind: kindPair, Units: []unit{u}})
			}
			touched++
			continue
		}
		idx := 0
		if touched > 1 {
			idx = int(rand.NewZipf(g.rng, zipfSkew, 1, uint64(touched-1)).Uint64())
		}
		out = append(out, request{Kind: kindRepeat, Units: []unit{pool[idx]}})
	}
	return out
}

// editSequence builds n requests over a pool of one base unit per
// template (at editScale), n/pool requests per unit. Each unit's
// requests come in runs of versionRun: a new version (its introduction
// first, then edits, each its base with one fresh edit in one
// function) followed by resubmits of that version unchanged under
// fresh names. Units are interleaved in seeded order. Every unit gets
// the same runs, so the mix of work is the same whatever the seed.
//
// The router spreads names over both shards and each shard keeps its
// own memo, so a version is filled where it was first sent and again
// by the first of its resubmits that lands on the other shard. With
// five resubmits per version nearly every version pays that second
// fill: about one request in three misses the memo and two in three
// hit it, so p50 falls inside the hits and p99 inside the misses.
func editSequence(g *gen, pool, n int) []request {
	per := n / pool
	base := make([]unit, pool)
	var order []int
	for p := range base {
		base[p] = g.unit(p%numTemplates, editScale, 0)
		for range per {
			order = append(order, p)
		}
	}
	g.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	sent := make([]int, pool)
	current := make([]string, pool)
	out := make([]request, 0, len(order))
	for i, p := range order {
		u := base[p]
		var k kind
		switch {
		case sent[p] == 0:
			k = kindIntro
			current[p] = u.Source
		case sent[p]%versionRun == 0:
			k = kindEdit
			current[p] = editOneFunction(u.Source, g.rng, i)
			u.Name = fmt.Sprintf("%s.e%d.s", strings.TrimSuffix(u.Name, ".s"), i)
		default:
			k = kindResubmit
			u.Name = fmt.Sprintf("%s.r%d.s", strings.TrimSuffix(u.Name, ".s"), i)
		}
		sent[p]++
		u.Source = current[p]
		out = append(out, request{Kind: k, Units: []unit{u}})
	}
	return out
}

// editOneFunction returns base with one instruction, unique to edit
// number id, inserted at the top of one seeded cold function. Only
// that function's content differs from the base unit, so the result
// misses the memo for exactly one function.
func editOneFunction(base string, rng *rand.Rand, id int) string {
	const entry = ":\n\tpush %rbx\n"
	var sites []int
	for off := 0; ; {
		i := strings.Index(base[off:], entry)
		if i < 0 {
			break
		}
		at := off + i
		lineStart := strings.LastIndexByte(base[:at], '\n') + 1
		if strings.Contains(base[lineStart:at], "_cold") {
			sites = append(sites, at+len(entry))
		}
		off = at + len(entry)
	}
	at := sites[rng.IntN(len(sites))]
	return base[:at] + fmt.Sprintf("\tmovl $%d, %%edx\n", 100000+id) + base[at:]
}

// archives draws smaller units than the other workloads: with verify
// on, every pass invocation is validated, and smaller archives give the
// tail percentile enough samples within a run.
//
// Every archive takes one unit from each size tercile (in seeded
// order), so archives carry nearly the same work: an archive's latency
// then depends on the code, not on how a random draw grouped big
// units, and its first record is always a small unit's.
func archives(g *gen, n int) []request {
	units := g.balanced(n*archiveUnits, maxScaleArch)
	slices.SortStableFunc(units, func(a, b unit) int { return len(a.Source) - len(b.Source) })
	for t := 0; t < archiveUnits; t++ {
		third := units[t*n : (t+1)*n]
		g.rng.Shuffle(n, func(i, j int) { third[i], third[j] = third[j], third[i] })
	}
	out := make([]request, n)
	for i := range out {
		out[i] = request{Kind: kindArchive}
		for t := 0; t < archiveUnits; t++ {
			out[i].Units = append(out[i].Units, units[t*n+i])
		}
	}
	return out
}

// sample picks, for every template, the first timed unit of its
// smallest scale (the edit pool's base units all sit in that stratum),
// so the sample's templates and sizes are the same for every seed.
func sample(timed []request) []unit {
	picked := make([]*unit, numTemplates)
	for i := range timed {
		for j := range timed[i].Units {
			if u := &timed[i].Units[j]; picked[u.Tmpl] == nil && u.Stratum == 0 {
				picked[u.Tmpl] = u
			}
		}
	}
	var out []unit
	for _, u := range picked {
		if u != nil {
			out = append(out, *u)
		}
	}
	return out
}

// fingerprint is a SHA-256 over everything the program receives: spec,
// options, and every request's unit names and sources, warm-up first.
func (w *workload) fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s:%s:%t:", w.Name, w.Spec, w.Archive)
	for _, reqs := range [][]request{w.Warm, w.Timed} {
		fmt.Fprintf(h, "reqs:%d:", len(reqs))
		for _, r := range reqs {
			fmt.Fprintf(h, "req:%d:", len(r.Units))
			for _, u := range r.Units {
				fmt.Fprintf(h, "%d:%s:%d:", len(u.Name), u.Name, len(u.Source))
				h.Write([]byte(u.Source))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sourceKey identifies a unit's content; references are keyed by it.
func sourceKey(src string) string {
	s := sha256.Sum256([]byte(src))
	return string(s[:])
}
