// Command maotop is a live terminal dashboard for a MAO fleet: it
// polls the router's and every shard's /metrics (and, optionally,
// their MAOSCOPE flight recorders) and renders per-shard QPS,
// cache-hit rate, queue depth, quota rejects, request latency
// percentiles, and a pass-latency heatmap. Stdlib only — the same
// hand-rolled Prometheus parser (internal/scope) that the CI fleet
// step uses.
//
//	maotop -router http://localhost:7960            # discover shards
//	maotop -shards http://a:7950,http://b:7950      # routerless
//	maotop -router ... -debug http://localhost:7961 # + flight recorders
//	maotop -router ... -once -json                  # one sample, JSON
//
// Shards are discovered from the router's maorouter_shard_healthy
// series when -shards is not given. -once -json emits one aggregated
// sample as JSON and exits, so scripts and CI consume exactly the
// aggregation the dashboard displays.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"mao/internal/scope"
)

type passStat struct {
	Pass   string  `json:"pass"`
	Count  float64 `json:"count"`
	MeanMS float64 `json:"mean_ms"`
}

type shardView struct {
	URL          string     `json:"url"`
	Up           bool       `json:"up"`                // its /metrics answered
	Healthy      *bool      `json:"healthy,omitempty"` // router's verdict, absent without a router
	QPS          float64    `json:"qps"`
	Requests     float64    `json:"requests_total"`
	CacheHitRate float64    `json:"cache_hit_rate"`
	QueueDepth   float64    `json:"queue_depth"`
	Inflight     float64    `json:"inflight"`
	QueueP50MS   float64    `json:"queue_p50_ms"`
	QuotaRejects float64    `json:"quota_rejects_total"`
	P50MS        float64    `json:"p50_ms"`
	P99MS        float64    `json:"p99_ms"`
	Goroutines   float64    `json:"goroutines"`
	Passes       []passStat `json:"passes"`
}

type routerView struct {
	URL           string  `json:"url"`
	HealthyShards float64 `json:"healthy_shards"`
	Retries       float64 `json:"retries_total"`
	NoShard       float64 `json:"no_shard_total"`
}

type flightEntry struct {
	Source string             `json:"source"`
	Record scope.FlightRecord `json:"record"`
}

type fleetView struct {
	Router  *routerView   `json:"router,omitempty"`
	Shards  []shardView   `json:"shards"`
	Errors  []flightEntry `json:"errors,omitempty"`
	Slowest []flightEntry `json:"slowest,omitempty"`
}

// sample is one poll of every exposition plane.
type sample struct {
	at     time.Time
	router scope.Metrics            // nil: no router or fetch failed
	shards map[string]scope.Metrics // nil value: shard down
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("maotop: ")

	var (
		routerURL = flag.String("router", "", "maorouter base URL (shards discovered from its metrics)")
		shardsCSV = flag.String("shards", "", "comma-separated shard base URLs (overrides discovery)")
		debugCSV  = flag.String("debug", "", "comma-separated -debug-addr base URLs to poll for flight records")
		interval  = flag.Duration("interval", 2*time.Second, "poll interval")
		once      = flag.Bool("once", false, "poll once, print, exit")
		asJSON    = flag.Bool("json", false, "emit JSON instead of the dashboard (with -once: one sample)")
	)
	flag.Parse()
	if flag.NArg() != 0 || (*routerURL == "" && *shardsCSV == "") {
		fmt.Fprintln(os.Stderr, "usage: maotop -router URL | -shards URL[,URL...] [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	client := &http.Client{Timeout: 5 * time.Second}
	debugs := splitCSV(*debugCSV)
	if *once {
		if err := pollOnce(os.Stdout, client, *routerURL, splitCSV(*shardsCSV), debugs, *asJSON); err != nil {
			log.Fatal(err)
		}
		return
	}
	shards, err := resolveShards(client, *routerURL, splitCSV(*shardsCSV))
	if err != nil {
		log.Fatal(err)
	}
	cur := collect(client, *routerURL, shards)
	for {
		time.Sleep(*interval)
		prev := cur
		cur = collect(client, *routerURL, shards)
		view := buildView(&prev, cur, *routerURL, shards)
		attachFlight(client, debugs, &view)
		if !*asJSON {
			fmt.Print("\x1b[2J\x1b[H") // clear + home
		}
		if err := render(os.Stdout, view, *asJSON); err != nil {
			log.Fatal(err)
		}
	}
}

// pollOnce polls every plane once and writes the view to w. One-shot
// mode is what CI consumes: an unreachable or unparseable exposition
// plane is an error, not a dash, reported after the view is written.
func pollOnce(w io.Writer, client *http.Client, routerURL string, shards, debugs []string, asJSON bool) error {
	shards, err := resolveShards(client, routerURL, shards)
	if err != nil {
		return err
	}
	cur := collect(client, routerURL, shards)
	view := buildView(nil, cur, routerURL, shards)
	attachFlight(client, debugs, &view)
	if err := render(w, view, asJSON); err != nil {
		return err
	}
	if routerURL != "" && cur.router == nil {
		return fmt.Errorf("router %s: /metrics unreachable or unparseable", routerURL)
	}
	for _, s := range view.Shards {
		if !s.Up {
			return fmt.Errorf("shard %s: /metrics unreachable or unparseable", s.URL)
		}
	}
	return nil
}

func splitCSV(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// resolveShards returns shards when given, and otherwise reads the
// shard list off the router's maorouter_shard_healthy series — the
// labels are the configured shard base URLs.
func resolveShards(client *http.Client, routerURL string, shards []string) ([]string, error) {
	if len(shards) > 0 {
		return shards, nil
	}
	m, err := fetchMetrics(client, routerURL)
	if err != nil {
		return nil, fmt.Errorf("discovering shards from %s: %w", routerURL, err)
	}
	for _, s := range m["maorouter_shard_healthy"] {
		if u := s.Labels["shard"]; u != "" {
			shards = append(shards, u)
		}
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("no maorouter_shard_healthy series on %s/metrics", routerURL)
	}
	sort.Strings(shards)
	return shards, nil
}

func fetchMetrics(client *http.Client, base string) (scope.Metrics, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: status %d", base, resp.StatusCode)
	}
	return scope.ParseProm(resp.Body)
}

func collect(client *http.Client, routerURL string, shards []string) sample {
	s := sample{at: time.Now(), shards: make(map[string]scope.Metrics, len(shards))}
	if routerURL != "" {
		if m, err := fetchMetrics(client, routerURL); err == nil {
			s.router = m
		}
	}
	for _, u := range shards {
		if m, err := fetchMetrics(client, u); err == nil {
			s.shards[u] = m
		}
	}
	return s
}

// metricSum totals every sample of a metric across its label sets
// (e.g. per-client quota rejects → fleet rejects).
func metricSum(m scope.Metrics, name string) float64 {
	var t float64
	for _, s := range m[name] {
		t += s.Value
	}
	return t
}

// buildView aggregates one sample (plus the previous one, for rates)
// into the dashboard's view. Without a previous sample, QPS is the
// lifetime average (requests_total / uptime).
func buildView(prev *sample, cur sample, routerURL string, shards []string) fleetView {
	view := fleetView{}
	if cur.router != nil {
		rv := routerView{URL: routerURL}
		for _, s := range cur.router["maorouter_shard_healthy"] {
			rv.HealthyShards += s.Value
		}
		rv.Retries, _ = cur.router.Value("maorouter_retries_total")
		rv.NoShard, _ = cur.router.Value("maorouter_no_shard_total")
		view.Router = &rv
	}
	for _, u := range shards {
		sv := shardView{URL: u, Passes: []passStat{}}
		if cur.router != nil {
			if h, ok := cur.router.Labeled("maorouter_shard_healthy", map[string]string{"shard": u}); ok {
				healthy := h == 1
				sv.Healthy = &healthy
			}
		}
		m := cur.shards[u]
		if m == nil {
			view.Shards = append(view.Shards, sv)
			continue
		}
		sv.Up = true
		sv.Requests, _ = m.Value("maod_requests_total")
		if prev != nil && prev.shards[u] != nil {
			pr, _ := prev.shards[u].Value("maod_requests_total")
			if dt := cur.at.Sub(prev.at).Seconds(); dt > 0 {
				sv.QPS = (sv.Requests - pr) / dt
			}
		} else if up, ok := m.Value("maod_uptime_seconds"); ok && up > 0 {
			sv.QPS = sv.Requests / up
		}
		hits, _ := m.Value("maod_result_cache_hits_total")
		misses, _ := m.Value("maod_result_cache_misses_total")
		if hits+misses > 0 {
			sv.CacheHitRate = hits / (hits + misses)
		}
		sv.QueueDepth, _ = m.Value("maod_queue_depth")
		sv.Inflight, _ = m.Value("maod_inflight")
		sv.QuotaRejects = metricSum(m, "maod_quota_rejects_total")
		sv.Goroutines, _ = m.Value("maod_go_goroutines")
		if q, ok := m.Quantile("maod_request_duration_seconds", nil, 0.50); ok {
			sv.P50MS = q * 1000
		}
		if q, ok := m.Quantile("maod_request_duration_seconds", nil, 0.99); ok {
			sv.P99MS = q * 1000
		}
		if q, ok := m.Quantile("maod_queue_wait_seconds", nil, 0.50); ok {
			sv.QueueP50MS = q * 1000
		}
		sv.Passes = passStats(m)
		view.Shards = append(view.Shards, sv)
	}
	return view
}

// passStats reduces the per-pass latency histograms to (count, mean)
// per pass — the heatmap's cells.
func passStats(m scope.Metrics) []passStat {
	byPass := map[string]*passStat{}
	for _, s := range m["maod_pass_duration_seconds_count"] {
		p := s.Labels["pass"]
		if p == "" {
			continue
		}
		byPass[p] = &passStat{Pass: p, Count: s.Value}
	}
	for _, s := range m["maod_pass_duration_seconds_sum"] {
		if st := byPass[s.Labels["pass"]]; st != nil && st.Count > 0 {
			st.MeanMS = s.Value / st.Count * 1000
		}
	}
	out := make([]passStat, 0, len(byPass))
	for _, st := range byPass {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pass < out[j].Pass })
	return out
}

// attachFlight polls each debug listener's flight recorder and folds
// the errored and slowest requests into the view.
func attachFlight(client *http.Client, debugs []string, view *fleetView) {
	for _, base := range debugs {
		view.Errors = append(view.Errors, fetchFlight(client, base, "errors")...)
		view.Slowest = append(view.Slowest, fetchFlight(client, base, "slowest")...)
	}
	sort.Slice(view.Slowest, func(i, j int) bool {
		return view.Slowest[i].Record.DurNS > view.Slowest[j].Record.DurNS
	})
	if len(view.Slowest) > 8 {
		view.Slowest = view.Slowest[:8]
	}
	sort.Slice(view.Errors, func(i, j int) bool {
		return view.Errors[i].Record.TimeUnixNS > view.Errors[j].Record.TimeUnixNS
	})
	if len(view.Errors) > 8 {
		view.Errors = view.Errors[:8]
	}
}

func fetchFlight(client *http.Client, base, viewName string) []flightEntry {
	resp, err := client.Get(base + "/debug/scope/" + viewName)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var payload struct {
		Process string               `json:"process"`
		Records []scope.FlightRecord `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		return nil
	}
	out := make([]flightEntry, 0, len(payload.Records))
	for _, r := range payload.Records {
		out = append(out, flightEntry{Source: payload.Process + " " + base, Record: r})
	}
	return out
}

// heatShades maps a 0..1 intensity onto terminal cells.
var heatShades = []string{"  ", "░░", "▒▒", "▓▓", "██"}

// render writes the view to w, as the dashboard or as one JSON
// document.
func render(w io.Writer, view fleetView, asJSON bool) error {
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetEscapeHTML(false)
		return enc.Encode(view)
	}
	if view.Router != nil {
		fmt.Fprintf(w, "router %s  healthy %g  retries %g  unrouted %g\n\n",
			view.Router.URL, view.Router.HealthyShards, view.Router.Retries, view.Router.NoShard)
	}
	fmt.Fprintf(w, "%-28s %-5s %8s %7s %6s %6s %7s %8s %8s\n",
		"SHARD", "STATE", "QPS", "HIT%", "QUEUE", "INFL", "QREJ", "P50ms", "P99ms")
	for _, s := range view.Shards {
		state := "up"
		if !s.Up {
			state = "DOWN"
		} else if s.Healthy != nil && !*s.Healthy {
			state = "unrtd" // serving /metrics but failing the router's probe
		}
		fmt.Fprintf(w, "%-28s %-5s %8.1f %7.1f %6.0f %6.0f %7.0f %8.2f %8.2f\n",
			trimURL(s.URL), state, s.QPS, s.CacheHitRate*100,
			s.QueueDepth, s.Inflight, s.QuotaRejects, s.P50MS, s.P99MS)
	}

	// Pass-latency heatmap: rows are passes, columns are shards, cell
	// intensity is that shard's mean pass latency normalized to the
	// hottest cell.
	passes := map[string]bool{}
	maxMean := 0.0
	for _, s := range view.Shards {
		for _, p := range s.Passes {
			passes[p.Pass] = true
			if p.MeanMS > maxMean {
				maxMean = p.MeanMS
			}
		}
	}
	if len(passes) > 0 && maxMean > 0 {
		names := make([]string, 0, len(passes))
		for p := range passes {
			names = append(names, p)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "\npass latency heatmap (mean, max %.2fms)\n", maxMean)
		for _, p := range names {
			fmt.Fprintf(w, "%-14s", p)
			for _, s := range view.Shards {
				mean := 0.0
				for _, st := range s.Passes {
					if st.Pass == p {
						mean = st.MeanMS
					}
				}
				idx := int(mean / maxMean * float64(len(heatShades)-1))
				fmt.Fprint(w, heatShades[idx], " ")
			}
			fmt.Fprintln(w)
		}
	}

	if len(view.Errors) > 0 {
		fmt.Fprintln(w, "\nrecent errors")
		for _, e := range view.Errors {
			fmt.Fprintf(w, "  [%s] %s %s status %d: %s\n",
				e.Source, e.Record.TraceID, e.Record.Path, e.Record.Status, e.Record.Err)
		}
	}
	if len(view.Slowest) > 0 {
		fmt.Fprintln(w, "\nslowest requests")
		for _, e := range view.Slowest {
			fmt.Fprintf(w, "  [%s] %s %s %.2fms cache=%s shard=%s\n",
				e.Source, e.Record.TraceID, e.Record.Path,
				float64(e.Record.DurNS)/1e6, e.Record.Cache, e.Record.Shard)
		}
	}
	return nil
}

// trimURL drops the scheme so shard columns stay narrow.
func trimURL(u string) string {
	u = strings.TrimPrefix(u, "http://")
	return strings.TrimPrefix(u, "https://")
}
