package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"time"
)

// maxRunTime caps the rounds of one run, so a run ends well within
// three minutes however slow the machine is.
const maxRunTime = 100 * time.Second

// roundStats is what one round measured.
type roundStats struct {
	setup time.Duration // fleet construction through the warm-up
	wall  time.Duration // the timed phase
	cpu   time.Duration // process user+sys CPU in the timed phase
	alloc uint64        // heap bytes allocated in the timed phase
	rssKB int64         // resident high-water mark of the round
	n     int           // requests completed in the timed phase
	steal float64       // share of the machine's CPU time stolen in the timed phase

	p50, p99, ttfr50 float64 // latency percentiles of the timed phase, in ms
}

// runner runs the rounds of one workload and gates every answer.
type runner struct {
	w      *workload
	refs   map[string]reference
	warmP  []payload
	timedP []payload
	log    io.Writer

	// scrape, when set, collects /metrics deltas around every timed
	// phase (the traced run).
	scrape bool
	deltas map[string]float64

	rounds   []roundStats
	hwmReset bool

	attempted, failed int
	failures          []error
	memoHits          int // timed single answers spliced whole from a shard's memo

	answers map[string]string // source key -> first round's answer
	outHash string            // SHA-256 over the first round's answers
}

func newRunner(w *workload, refs map[string]reference, log io.Writer) *runner {
	return &runner{
		w: w, refs: refs, log: log,
		warmP:  payloads(w, w.Warm),
		timedP: payloads(w, w.Timed),
		deltas: map[string]float64{},
	}
}

func (r *runner) fail(err error) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, err)
	}
}

// gate checks a phase's answers and returns how many were memo hits;
// the first round's timed answers are kept for the sim sample and
// hashed into the output fingerprint.
func (r *runner) gate(reqs []request, outs []outcome, keep bool) (memoHits int) {
	h := sha256.New()
	for i, o := range outs {
		r.attempted++
		got, hit, err := checkOutcome(r.w, reqs[i], o, r.refs)
		if err != nil {
			r.fail(fmt.Errorf("request %d: %w", i, err))
			continue
		}
		if hit {
			memoHits++
		}
		if keep {
			for j, a := range got {
				r.answers[sourceKey(reqs[i].Units[j].Source)] = a
				fmt.Fprintf(h, "%d:", len(a))
				io.WriteString(h, a)
			}
		}
	}
	if keep {
		r.outHash = hex.EncodeToString(h.Sum(nil))
	}
	return memoHits
}

// run repeats rounds until the timed phases add up to seconds.
func (r *runner) run(seconds time.Duration) error {
	start := time.Now()
	var timed time.Duration
	for timed < seconds && time.Since(start) < maxRunTime {
		if err := r.round(); err != nil {
			return err
		}
		timed += r.rounds[len(r.rounds)-1].wall
	}
	return nil
}

// round boots a fresh fleet, warms it up, serves the timed sequence
// once over the closed loop, and gates every answer. A fresh fleet per
// round keeps every round's work identical: no cache carries over.
func (r *runner) round() error {
	runtime.GC()
	debug.FreeOSMemory()
	r.hwmReset = resetPeakRSS()

	t0 := time.Now()
	f, err := bootFleet(shards)
	if err != nil {
		return err
	}
	defer f.close()
	conns := newConns(connections)
	defer closeConns(conns)
	warm := drive(conns, f.url, r.warmP)
	setup := time.Since(t0)

	var before map[string]float64
	if r.scrape {
		if before, err = scrapeFleet(f); err != nil {
			return err
		}
	}
	cpu0, alloc0 := cpuTime(), heapAllocs()
	steal0, ticks0 := cpuTicks()
	t1 := time.Now()
	outs := drive(conns, f.url, r.timedP)
	st := roundStats{
		setup: setup,
		wall:  time.Since(t1),
		cpu:   cpuTime() - cpu0,
		alloc: heapAllocs() - alloc0,
		rssKB: peakRSSKB(),
		n:     len(outs),
	}
	steal1, ticks1 := cpuTicks()
	st.steal = ratio(float64(steal1-steal0), float64(ticks1-ticks0))
	if r.scrape {
		after, err := scrapeFleet(f)
		if err != nil {
			return err
		}
		for k, v := range after {
			r.deltas[k] += v - before[k]
		}
	}

	first := r.answers == nil
	if first {
		r.answers = map[string]string{}
	}
	r.gate(r.w.Warm, warm, false)
	r.memoHits += r.gate(r.w.Timed, outs, first)
	lat, ttfr := make([]time.Duration, len(outs)), make([]time.Duration, len(outs))
	for i, o := range outs {
		lat[i], ttfr[i] = o.latency, o.ttfr
	}
	st.p50, st.p99, st.ttfr50 = percentile(lat, 50), percentile(lat, 99), percentile(ttfr, 50)
	r.rounds = append(r.rounds, st)
	fmt.Fprintf(r.log, "round %d: setup %.3fs, %d requests in %.3fs, steal %.1f%%, cpu %.3f ms/req, p50 %.3f p99 %.3f ttfr %.3f ms\n",
		len(r.rounds), setup.Seconds(), st.n, st.wall.Seconds(), 100*st.steal,
		st.cpu.Seconds()*1e3/float64(st.n), st.p50, st.p99, st.ttfr50)
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	note  string  // sample count, printed in the table only
}

// endToEnd reduces the rounds to the end-to-end metrics.
func (r *runner) endToEnd(s sampleResult) map[string]metric {
	var rps, cpu, alloc, rss, setup, p50, p99, ttfr []float64
	for _, st := range r.rounds {
		p50 = append(p50, st.p50)
		p99 = append(p99, st.p99)
		ttfr = append(ttfr, st.ttfr50)
		rps = append(rps, float64(st.n)/st.wall.Seconds())
		cpu = append(cpu, st.cpu.Seconds()*1e3/float64(st.n))
		alloc = append(alloc, float64(st.alloc)/1024/float64(st.n))
		rss = append(rss, float64(st.rssKB)/1024)
		setup = append(setup, st.setup.Seconds())
	}
	rounds := fmt.Sprintf("median of %d rounds of %d requests", len(r.rounds), len(r.w.Timed))
	fastest := fmt.Sprintf("best quartile of %d rounds of %d requests", len(r.rounds), len(r.w.Timed))
	units := fmt.Sprintf("sum over %d sample units", len(r.w.Sample))
	rssNote := rounds
	if !r.hwmReset {
		rssNote = "process-wide high-water mark: the per-round reset was refused"
	}
	return map[string]metric{
		"throughput_rps":   {bestQuartile(rps, true), "1/s", fastest},
		"latency_p50_ms":   {bestQuartile(p50, false), "ms", fastest},
		"latency_p99_ms":   {bestQuartile(p99, false), "ms", fastest},
		"ttfr_p50_ms":      {bestQuartile(ttfr, false), "ms", fastest},
		"cpu_ms_per_req":   {bestQuartile(cpu, false), "ms", fastest},
		"alloc_kb_per_req": {median(alloc), "KB", rounds},
		"rss_peak_mb":      {median(rss), "MB", rssNote},
		"setup_s":          {median(setup), "s", rounds},
		"out_text_bytes":   {float64(s.textBytes), "bytes", units},
		"sim_cycles":       {float64(s.cycles), "cycles", units},
	}
}
