package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"mao/internal/scope"
)

// scrape reads one /metrics page and sums every metric's samples
// over their label sets.
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", base, err)
	}
	defer resp.Body.Close()
	page, err := scope.ParseProm(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", base, err)
	}
	out := make(map[string]float64, len(page))
	for name, samples := range page {
		for _, s := range samples {
			out[name] += s.Value
		}
	}
	return out, nil
}

// scrapeFleet sums the /metrics of every shard and the router.
func scrapeFleet(f *fleet) (map[string]float64, error) {
	out := map[string]float64{}
	urls := f.shardURLs
	if f.router != nil {
		urls = append([]string{f.url}, urls...)
	}
	for _, u := range urls {
		m, err := scrape(u)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			out[k] += v
		}
	}
	return out, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// measureHop times the same result-cache hit via the router and
// directly to the shard named in X-Mao-Shard, alternating, for every
// sample unit. It returns the router hop and the shard's own HTTP
// round trip for a hit, in microseconds.
func measureHop(w *workload) (hopUS, httpUS float64, err error) {
	f, err := bootFleet(shards)
	if err != nil {
		return 0, 0, err
	}
	defer f.close()
	conns := newConns(1)
	defer closeConns(conns)
	c := conns[0]
	var ps []payload
	var shardOf []string
	for _, u := range w.Sample {
		p := singlePayload(u, w.Spec, w.Archive)
		o := send(c, f.url, p)
		if o.err != nil || o.status != http.StatusOK || o.shard == "" {
			return 0, 0, fmt.Errorf("hop probe: status %d, shard %q: %v", o.status, o.shard, o.err)
		}
		ps = append(ps, p)
		shardOf = append(shardOf, o.shard)
	}
	var via, direct []float64
	for rep := 0; rep < 5; rep++ {
		for i, p := range ps {
			a := send(c, f.url, p)
			b := send(c, shardOf[i], p)
			if a.cache != "hit" || b.cache != "hit" {
				return 0, 0, fmt.Errorf("hop probe: expected result-cache hits, got %q and %q", a.cache, b.cache)
			}
			via = append(via, float64(a.latency)/1e3)
			direct = append(direct, float64(b.latency)/1e3)
		}
	}
	return median(via) - median(direct), median(direct), nil
}

// measureUnattributed sends the workload's first requests (archive
// members as single requests with check and verify) one at a time
// straight to a fresh shard, then resends each as a result-cache hit,
// and replays the same units in process. For the misses it returns the
// share of latency covered by neither the layer spans, the queue wait
// nor the hit round trip (HTTP, JSON, key and lookup), in percent.
func measureUnattributed(w *workload) (float64, error) {
	var units []unit
	for _, r := range w.Timed {
		if r.Kind == kindRepeat || r.Kind == kindPair {
			continue // result-cache hits in the fleet, so no miss to decompose
		}
		units = append(units, r.Units...)
		if len(units) >= 64 {
			units = units[:64]
			break
		}
	}
	f, err := bootFleet(1)
	if err != nil {
		return 0, err
	}
	defer f.close()
	conns := newConns(1)
	defer closeConns(conns)
	before, err := scrape(f.url)
	if err != nil {
		return 0, err
	}
	miss := make([]time.Duration, len(units))
	for i, u := range units {
		o := send(conns[0], f.url, singlePayload(u, w.Spec, w.Archive))
		if o.err != nil || o.status != http.StatusOK {
			return 0, fmt.Errorf("unattributed probe: status %d: %v", o.status, o.err)
		}
		if o.cache == "miss" {
			miss[i] = o.latency
		}
	}
	after, err := scrape(f.url)
	if err != nil {
		return 0, err
	}
	qwait := time.Duration(ratio(after["maod_queue_wait_seconds_sum"]-before["maod_queue_wait_seconds_sum"],
		after["maod_queue_wait_seconds_count"]-before["maod_queue_wait_seconds_count"]) * float64(time.Second))

	t := newTracer()
	rp := newReplayer(w.Spec, t)
	var total, covered time.Duration
	for i, u := range units {
		o := send(conns[0], f.url, singlePayload(u, w.Spec, w.Archive))
		if o.err != nil || o.status != http.StatusOK {
			return 0, fmt.Errorf("unattributed probe: status %d: %v", o.status, o.err)
		}
		t.req = i
		root := t.begin("request")
		if _, err := rp.job(u, w.Archive); err != nil {
			return 0, err
		}
		t.end(root)
		if miss[i] == 0 {
			continue
		}
		total += miss[i]
		covered += o.latency + qwait
		for _, s := range t.spans[root+1:] {
			switch s.Name {
			case "cachekey.key", "trace.collector", "relax":
				// inside the hit round trip, or not on the service path
			default:
				if s.Parent == root {
					covered += time.Duration(s.End - s.Start)
				}
			}
		}
	}
	return 100 * ratio(float64(total-covered), float64(total)), nil
}

// traceRun produces the per-layer metrics: the fleet counters the
// rounds scraped, a traced in-process replay of the timed sequence,
// untraced replays for the tracing overhead, and the hop and
// unattributed probes.
func traceRun(r *runner, seed uint64) (map[string]metric, error) {
	w := r.w
	// Traced and untraced replays alternate T U U T, so a trend in
	// machine speed cancels out of the overhead.
	var rp *replayer
	var tracedTime, plainTime time.Duration
	for i, traced := range []bool{true, false, false, true} {
		var t *tracer
		if traced {
			t = newTracer()
		}
		x := newReplayer(w.Spec, t)
		t0 := time.Now()
		outs, err := x.replay(w.Timed, w.Archive)
		if err != nil {
			return nil, err
		}
		if !traced {
			plainTime += time.Since(t0)
			continue
		}
		tracedTime += time.Since(t0)
		if i > 0 {
			continue
		}
		rp = x
		for j, req := range w.Timed {
			for k, u := range req.Units {
				r.attempted++
				if a := outs[j][k]; a != "" && a != r.refs[sourceKey(u.Source)].assembly {
					r.fail(fmt.Errorf("replay of %s differs from the cold pipeline", u.Name))
				}
			}
		}
	}
	if err := writeSpans(rp.t.spans, filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", w.Name, seed))); err != nil {
		return nil, err
	}

	hop, httpUS, err := measureHop(w)
	if err != nil {
		return nil, err
	}
	unattr, err := measureUnattributed(w)
	if err != nil {
		return nil, err
	}
	return layerMetrics(r, rp, layerInputs{
		overheadPct:  100 * ratio(float64(tracedTime-plainTime), float64(plainTime)),
		hopUS:        hop,
		httpUS:       httpUS,
		unattributed: unattr,
	}), nil
}

// absent marks a metric of a module the workload's path never calls.
const absent = "absent: not on this workload's path"

type layerInputs struct {
	overheadPct, hopUS, httpUS, unattributed float64
}

// layerMetrics assembles every per-layer metric. Module timings are
// per call. A module the workload's own path never calls is absent:
// its metrics read 0 and the table says so (README.md gives the
// reasons), since the result line carries every per-layer metric.
func layerMetrics(r *runner, path *replayer, in layerInputs) map[string]metric {
	pl := aggregate(path.t.spans)
	out := map[string]metric{}
	pick := func(name string) (*layerTotals, string) {
		if l := pl[name]; l != nil && l.calls > 0 {
			return l, fmt.Sprintf("%d calls", l.calls)
		}
		return &layerTotals{}, absent
	}
	us := func(metricName, span string) {
		l, note := pick(span)
		out[metricName] = metric{ratio(float64(l.self)/1e3, float64(l.calls)), "us", note}
	}
	kb := func(metricName, span string) {
		l, note := pick(span)
		out[metricName] = metric{ratio(float64(l.selfAlloc)/1024, float64(l.calls)), "KB", note}
	}
	share := func(metricName string, a, b float64, unit, note string) {
		out[metricName] = metric{ratio(a, b), unit, note}
	}

	us("cachekey.key_us", "cachekey.key")
	us("asm.parse_us", "asm.parse")
	kb("asm.parse_alloc_kb", "asm.parse")
	parse, note := pick("asm.parse")
	share("asm.nodes_per_ms", float64(path.nodes), float64(parse.self)/float64(time.Millisecond), "nodes/ms", note)
	us("ir.analyze_us", "ir.analyze")
	us("ir.emit_us", "ir.emit")
	pipe, note := pick("pass.pipeline")
	out["pass.pipeline_us"] = metric{ratio(float64(pipe.incl-pipe.verifyIn)/1e3, float64(pipe.calls)), "us", note + ", passes included"}
	out["pass.pipeline_alloc_kb"] = metric{ratio(float64(pipe.inclAlloc-pipe.verifyAl)/1024, float64(pipe.calls)), "KB", note + ", passes included"}
	for _, p := range strings.Split(layoutSpec, ":") {
		us("passes."+p+".us", "passes."+p)
		note := "summed over the replayed pipeline runs"
		if !slices.Contains(path.passes, p) {
			note = absent
		}
		out["passes."+p+".applied"] = metric{float64(path.applied[p]), "count", note}
	}
	us("relax.us", "relax")
	kb("relax.alloc_kb", "relax")
	us("trace.collector_us", "trace.collector")
	for _, m := range []string{"plan", "lookup", "splice", "fill"} {
		us("memo."+m+"_us", "memo."+m)
	}
	us("verify.equiv_us", "verify.equiv")
	us("check.unit_us", "check.unit")
	note = absent
	if path.verdicts > 0 {
		note = fmt.Sprintf("%d function verdicts", path.verdicts)
	}
	share("verify.proved_ratio", float64(path.proved), float64(path.verdicts), "ratio", note)

	d := r.deltas
	requests := float64(len(r.rounds) * len(r.w.Timed))
	fleetNote := fmt.Sprintf("fleet /metrics over %d rounds", len(r.rounds))
	lookups := d["maod_result_cache_hits_total"] + d["maod_result_cache_misses_total"]
	if _, note = pick("memo.lookup"); note != absent {
		note = fleetNote + ", function probes"
	}
	share("memo.hit_ratio", d["maod_memo_hits_total"], d["maod_memo_hits_total"]+d["maod_memo_misses_total"], "ratio", note)
	share("serve.result_hit_ratio", d["maod_result_cache_hits_total"], lookups, "ratio", fleetNote)
	share("serve.coalesced_share", d["maod_coalesced_total"], lookups, "ratio", fleetNote)
	share("serve.jobs_per_req", d["maod_batch_jobs_total"], requests, "jobs", fleetNote)
	share("serve.queue_wait_ms", 1e3*d["maod_queue_wait_seconds_sum"], d["maod_queue_wait_seconds_count"], "ms", fleetNote)
	share("serve.batch_jobs_mean", d["maod_batch_jobs_total"], d["maod_batches_total"], "jobs", fleetNote)
	share("router.coalesced_share", d["maorouter_coalesced_total"], requests, "ratio", fleetNote)
	out["router.retries"] = metric{d["maorouter_retries_total"], "count", fleetNote}
	out["serve.http_us"] = metric{in.httpUS, "us", "median result-cache hit straight to its shard"}
	out["router.hop_us"] = metric{in.hopUS, "us", "median hit via the router minus straight to the shard"}
	out["unattributed_pct"] = metric{in.unattributed, "%", "misses sent one at a time to a fresh shard"}
	out["trace.overhead_pct"] = metric{in.overheadPct, "%", "traced vs untraced replays, in order T U U T"}
	return out
}

// spanDir is where the traced run writes its span dump, relative to
// the repository root the benchmark runs from.
const spanDir = ".bench_build/maoledger/spans"

// writeSpans dumps spans as JSON lines.
func writeSpans(spans []span, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
