package main

import (
	"encoding/json"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, err := buildWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildWorkload(name, 7)
		c, _ := buildWorkload(name, 8)
		if a.fingerprint() != b.fingerprint() {
			t.Errorf("%s: seed 7 generated different inputs twice", name)
		}
		if a.fingerprint() == c.fingerprint() {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", name)
		}
		if len(a.Sample) != a.templatesSeen() {
			t.Errorf("%s: sample has %d units, want one per template (%d)", name, len(a.Sample), a.templatesSeen())
		}
	}
}

// templatesSeen counts the distinct templates of the timed units.
func (w *workload) templatesSeen() int {
	seen := map[int]bool{}
	for _, r := range w.Timed {
		for _, u := range r.Units {
			seen[u.Tmpl] = true
		}
	}
	return len(seen)
}

// shares returns each kind's share of a request sequence.
func shares(reqs []request) map[kind]float64 {
	out := map[kind]float64{}
	for _, r := range reqs {
		out[r.Kind] += 1 / float64(len(reqs))
	}
	return out
}

func TestZipfMissShare(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		w, _ := buildWorkload("zipf-repeat", seed)
		if s := shares(w.Timed)[kindFirst]; s < 0.10 || s > 0.15 {
			t.Errorf("seed %d: first-touch share %.3f, want 0.10..0.15", seed, s)
		}
	}
}

// TestEditResubmitShares pins the request mix: per pool unit one
// introduction, four edits and 25 resubmits, each version followed by
// five resubmits of it unchanged.
func TestEditResubmitShares(t *testing.T) {
	w, _ := buildWorkload("edit-resubmit", 3)
	s := shares(w.Timed)
	for k, want := range map[kind]float64{kindIntro: 1.0 / 30, kindEdit: 4.0 / 30, kindResubmit: 25.0 / 30} {
		if math.Abs(s[k]-want) > 1e-9 {
			t.Errorf("kind %d: share %.4f, want %.4f", k, s[k], want)
		}
	}
	current := map[int]string{}
	run := map[int]int{}
	for i, r := range w.Timed {
		u := r.Units[0]
		if r.Kind == kindResubmit {
			if u.Source != current[u.Tmpl] {
				t.Fatalf("request %d: a resubmit differs from its unit's current version", i)
			}
			run[u.Tmpl]++
			continue
		}
		if run[u.Tmpl] != versionRun-1 && current[u.Tmpl] != "" {
			t.Fatalf("request %d: a version had %d resubmits, want %d", i, run[u.Tmpl], versionRun-1)
		}
		current[u.Tmpl], run[u.Tmpl] = u.Source, 0
	}
}

// slow reports whether requests of kind k run the full pipeline (or
// wait on a run that does); their latencies form the slow population.
// It does not judge edit-resubmit's resubmits: whether one misses the
// memo depends on the shard the router sends it to, so
// TestEditResubmitMemoShareOnFleet measures that mix on the fleet.
func (k kind) slow() bool { return k != kindRepeat }

// boundaryOK checks that a slow-population share puts p50 at least 10
// points from the boundary and p99 inside the slow population.
func boundaryOK(t *testing.T, name string, slow float64) {
	t.Helper()
	if math.Abs(slow-0.5) < 0.1 {
		t.Errorf("%s: slow share %.3f puts p50 within 10 points of the population boundary", name, slow)
	}
	if slow < 0.05 {
		t.Errorf("%s: slow share %.3f puts p99 within 4 points of the population boundary", name, slow)
	}
}

// TestPercentilesInsidePopulations pins the design rule that p50 and
// p99 each fall inside one latency population, away from the boundary
// between the fast (cache-served) and slow (pipeline) requests.
func TestPercentilesInsidePopulations(t *testing.T) {
	for _, name := range workloadNames {
		if name == "edit-resubmit" {
			continue // measured on the fleet below
		}
		w, _ := buildWorkload(name, 1)
		slow := 0.0
		for k, s := range shares(w.Timed) {
			if k.slow() {
				slow += s
			}
		}
		boundaryOK(t, name, slow)
	}
}

// TestEditResubmitMemoShareOnFleet serves one round of edit-resubmit
// through the router and both shards and counts the answers spliced
// whole from a shard's memo. Each shard has its own memo, so a version
// misses once on each shard it reaches; about two thirds of requests
// must still hit, with p50 inside the hits and p99 inside the misses.
func TestEditResubmitMemoShareOnFleet(t *testing.T) {
	w, err := buildWorkload("edit-resubmit", 1)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := references(w, w.Warm, w.Timed)
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(w, refs, &strings.Builder{})
	if err := r.run(time.Nanosecond); err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("%d of %d failed: %v", r.failed, r.attempted, r.failures)
	}
	hits := float64(r.memoHits) / float64(len(w.Timed))
	t.Logf("whole-unit memo hits: %d of %d (%.1f%%)", r.memoHits, len(w.Timed), 100*hits)
	if hits < 0.6 || hits > 0.75 {
		t.Errorf("memo-hit share %.3f, want about two thirds (0.60..0.75)", hits)
	}
	boundaryOK(t, "edit-resubmit", 1-hits)
}

// smallWorkload is a two-request workload for gate and fleet tests.
func smallWorkload(t *testing.T, archive bool) (*workload, map[string]reference) {
	t.Helper()
	g := newGen(11, 1, "t")
	w := &workload{Name: "small", Spec: layoutSpec, Archive: archive}
	us := g.balanced(5, minScale)
	if archive {
		w.Timed = []request{{Kind: kindArchive, Units: us[:2]}, {Kind: kindArchive, Units: us[2:4]}}
		w.Warm = []request{{Kind: kindArchive, Units: us[4:]}}
	} else {
		for _, u := range us {
			w.Timed = append(w.Timed, request{Kind: kindCold, Units: []unit{u}})
		}
		w.Timed, w.Warm = w.Timed[:4], w.Timed[4:]
	}
	w.Sample = us[:2]
	refs, err := references(w, w.Warm, w.Timed)
	if err != nil {
		t.Fatal(err)
	}
	return w, refs
}

func singleBody(asm string) []byte {
	b, _ := json.Marshal(map[string]string{"assembly": asm})
	return append(b, '\n')
}

func archiveBody(t *testing.T, w *workload, r request, refs map[string]reference, mutate func([]archiveLine) []archiveLine) []byte {
	t.Helper()
	var lines []archiveLine
	for i, u := range r.Units {
		ref := refs[sourceKey(u.Source)]
		l := archiveLine{Index: i, Status: 200, Assembly: ref.assembly}
		if err := json.Unmarshal(ref.diags, &l.Diags); err != nil {
			t.Fatal(err)
		}
		for _, p := range strings.Split(w.Spec, ":") {
			l.Verify = append(l.Verify, verifyVerdict{Pass: p})
		}
		lines = append(lines, l)
	}
	lines = append(lines, archiveLine{Done: true, Units: len(r.Units), OK: len(r.Units)})
	if mutate != nil {
		lines = mutate(lines)
	}
	var out []byte
	for _, l := range lines {
		b, _ := json.Marshal(l)
		out = append(append(out, b...), '\n')
	}
	return out
}

func TestGateRejectsWrongAnswers(t *testing.T) {
	w, refs := smallWorkload(t, false)
	r := w.Timed[0]
	ref := refs[sourceKey(r.Units[0].Source)].assembly
	if _, _, err := checkOutcome(w, r, outcome{status: 200, body: singleBody(ref)}, refs); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	for name, o := range map[string]outcome{
		"wrong assembly":  {status: 200, body: singleBody(ref + "\tnop\n")},
		"non-200":         {status: 503, body: []byte(`{"error":"draining"}`)},
		"transport error": {err: errors.New("connection reset")},
	} {
		if _, _, err := checkOutcome(w, r, o, refs); err == nil {
			t.Errorf("%s accepted", name)
		}
	}

	aw, arefs := smallWorkload(t, true)
	ar := aw.Timed[0]
	if _, _, err := checkOutcome(aw, ar, outcome{status: 200, body: archiveBody(t, aw, ar, arefs, nil)}, arefs); err != nil {
		t.Fatalf("correct archive rejected: %v", err)
	}
	for name, mutate := range map[string]func([]archiveLine) []archiveLine{
		"no trailer":      func(ls []archiveLine) []archiveLine { return ls[:len(ls)-1] },
		"short stream":    func(ls []archiveLine) []archiveLine { return ls[1:] },
		"wrong assembly":  func(ls []archiveLine) []archiveLine { ls[0].Assembly += "\tnop\n"; return ls },
		"refuted verdict": func(ls []archiveLine) []archiveLine { ls[1].Verify[0].Refuted = []string{"f"}; return ls },
		"failed unit":     func(ls []archiveLine) []archiveLine { ls[0].Status = 422; return ls },
	} {
		o := outcome{status: 200, body: archiveBody(t, aw, ar, arefs, mutate)}
		if _, _, err := checkOutcome(aw, ar, o, arefs); err == nil {
			t.Errorf("archive with %s accepted", name)
		}
	}
}

func TestSampleCheckRejectsWrongCode(t *testing.T) {
	w, refs := smallWorkload(t, false)
	answers := map[string]string{}
	for _, u := range w.Sample {
		answers[sourceKey(u.Source)] = refs[sourceKey(u.Source)].assembly
	}
	if s := checkSample(w.Sample, answers); len(s.failures) > 0 || s.cycles == 0 || s.textBytes == 0 {
		t.Fatalf("correct code: failures %v, cycles %d, text %d", s.failures, s.cycles, s.textBytes)
	}
	u := w.Sample[0]
	end := "\tret\n\t.size\t" + u.Entry
	bad := strings.Replace(answers[sourceKey(u.Source)], end, "\tmovq $12345, %rax\n"+end, 1)
	if bad == answers[sourceKey(u.Source)] {
		t.Fatal("could not inject the wrong instruction")
	}
	answers[sourceKey(u.Source)] = bad
	if s := checkSample(w.Sample, answers); len(s.failures) != 1 {
		t.Errorf("wrong code in one sample unit: %d failures, want 1", len(s.failures))
	}
}

// TestRoundOnFleet runs one real round of each request shape through
// the in-process fleet and expects every answer to pass the gate.
func TestRoundOnFleet(t *testing.T) {
	for _, archive := range []bool{false, true} {
		w, refs := smallWorkload(t, archive)
		r := newRunner(w, refs, &strings.Builder{})
		r.scrape = true
		if err := r.run(time.Nanosecond); err != nil {
			t.Fatal(err)
		}
		if r.failed != 0 || r.attempted != len(w.Timed)+len(w.Warm) {
			t.Errorf("archive=%v: %d of %d failed: %v", archive, r.failed, r.attempted, r.failures)
		}
		if r.deltas["maod_batch_jobs_total"] < 4 {
			t.Errorf("archive=%v: /metrics saw %v jobs, want at least 4", archive, r.deltas["maod_batch_jobs_total"])
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and ([1, 2, 3, 4], n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
		// A timing's best quartile is Q1 when lower is better, Q3 when higher is.
		if lo, hi := bestQuartile(c.xs, false), bestQuartile(c.xs, true); lo != c.want[0] || hi != c.want[2] {
			t.Errorf("bestQuartile(%v) = %v lower-better, %v higher-better; want %v, %v", c.xs, lo, hi, c.want[0], c.want[2])
		}
	}
}

// TestMetricNamesMatchBenchmarkFile keeps BENCHMARK.json and the
// metrics the program prints in step, and pins, per workload, which
// per-layer metrics are absent because the workload's path never calls
// their module (README.md, "Layers a workload never calls").
func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	bf, err := readBench("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	noSplice := []string{"memo.splice_us", "verify.equiv_us", "verify.proved_ratio", "check.unit_us"}
	wantAbsent := map[string][]string{
		"cold-unique":    noSplice,
		"zipf-repeat":    noSplice,
		"edit-resubmit":  {"passes.LOOP16.us", "passes.LOOP16.applied", "verify.equiv_us", "verify.proved_ratio", "check.unit_us"},
		"archive-verify": {"memo.plan_us", "memo.lookup_us", "memo.splice_us", "memo.fill_us", "memo.hit_ratio"},
	}
	check := func(what string, got map[string]metric, want []bound) {
		t.Helper()
		var g, w []string
		for k, m := range got {
			g = append(g, k+" "+m.Unit)
		}
		for _, b := range want {
			w = append(w, b.Name+" "+b.Unit)
		}
		slices.Sort(g)
		slices.Sort(w)
		if !slices.Equal(g, w) {
			t.Errorf("%s: program prints %v,\nBENCHMARK.json lists %v", what, g, w)
		}
	}
	for _, name := range workloadNames {
		w, err := buildWorkload(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		// A short stretch of the timed sequence that reaches every
		// module the workload calls: for edit-resubmit, one unit's
		// introduction, its resubmits and its first edit.
		reqs := w.Timed[:6]
		if name == "edit-resubmit" {
			reqs = nil
			for _, r := range w.Timed {
				if r.Units[0].Tmpl == w.Timed[0].Units[0].Tmpl && len(reqs) <= versionRun {
					reqs = append(reqs, r)
				}
			}
		}
		rp := newReplayer(w.Spec, newTracer())
		if _, err := rp.replay(reqs, w.Archive); err != nil {
			t.Fatal(err)
		}
		r := &runner{w: w, rounds: []roundStats{{n: 1, wall: time.Second}}, hwmReset: true}
		check(name+" end_to_end", r.endToEnd(sampleResult{}), bf.EndToEnd)
		layers := layerMetrics(r, rp, layerInputs{})
		check(name+" per_layer", layers, bf.PerLayer)
		var gotAbsent []string
		for k, m := range layers {
			if m.note == absent {
				gotAbsent = append(gotAbsent, k)
			}
		}
		slices.Sort(gotAbsent)
		want := slices.Sorted(slices.Values(wantAbsent[name]))
		if !slices.Equal(gotAbsent, want) {
			t.Errorf("%s: absent per-layer metrics %v, want %v", name, gotAbsent, want)
		}
	}
}
