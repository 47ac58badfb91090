#!/bin/sh
# ci.sh — the checks CI runs, runnable locally with ./ci.sh.
#
#   gofmt       formatting must be canonical
#   go vet      static analysis
#   go build    everything compiles
#   go test     full test suite under the race detector
#   maoledger   the benchmark module's own tests (maoledger/ is a
#               module of its own, so the root go test skips it): a
#               change that breaks the benchmark's API or metric
#               contract fails here, not in the benchmark run
#   race-stress the concurrency-bearing packages (the parallel pass
#               manager with its per-worker relax.State pool, the
#               incremental relaxation differential suite at 8
#               workers, the pipeline memo
#               every worker of a shard shares, the maod service, the
#               flight group maod coalesces identical misses with, the
#               router's one forwarding loop, the request layer and
#               flight recorder (internal/scope) every request of both
#               servers runs through while /debug/scope readers copy
#               records out, the passes, whose
#               analyses read ir.Node indices inside pipeline
#               workers, and maotop's one-shot poll of an in-process
#               fleet, with the root package's worker-determinism
#               and concurrent-pipeline tests) repeated under the
#               race detector to shake out scheduling-dependent races
#   maolint     pass bodies may mutate the IR only through the
#               pass.Ctx helpers — raw ir.List calls break provenance
#               and fragment dirtying silently — and take a function's
#               CFG, liveness and reaching definitions from the
#               pass.Ctx, which keeps them until a helper edits the
#               function, never from cfg.Build or dataflow.Live/Reach
#   fuzz smoke  the parser fuzz target runs briefly, so the committed
#               seeds keep passing and the harness cannot rot; the
#               verifier's zero-false-positive fuzz gate
#               (FuzzVerifyEquiv), the decoder's decode↔encode oracle
#               (FuzzDecodeEncodeRoundtrip), maod's maoar1 archive
#               framing parser (FuzzParseArchive), the pass-spec
#               parser (FuzzParsePipeline; specs arrive over HTTP),
#               the X-Mao-Trace header parser (FuzzParseHeader), the
#               metrics exposition parser maotop reads from the
#               network (FuzzParseProm) and the optimize-body decoder
#               both servers run on every request, checked against
#               encoding/json (FuzzDecodeOptimizeRequest), run briefly
#               for the same reason. Each step minimizes a new interesting input
#               for at most 1 s (-fuzzminimizetime): under the
#               default 60 s a step could spend nearly all of its
#               budget minimizing at 0 execs/s instead of fuzzing
#   decode-roundtrip
#               every corpus fixture is assembled to raw machine code
#               (mao -emit-binary), lifted back through the binary
#               front end (mao -binary), and re-emitted — the image
#               must be byte-identical, closing the
#               decode→IR→encode loop on real input
#   maod smoke  boot the daemon, probe /healthz and /metrics, run one
#               optimization, then SIGTERM and require a clean drain
#               (exit 0)
#   fleet smoke boot 2 maod shards behind a real maorouter, stream the
#               corpus as a maoar1 archive through the router and
#               byte-compare the records against a direct single
#               daemon (topology must be invisible in the bytes), then
#               SIGTERM one shard mid maoload run and require hitless
#               rerouting (no 5xx, no transport errors, rebalances
#               counted on the router's metrics)
#   scope smoke boot 2 shards (debug planes on) behind a maorouter,
#               run zipf maoload with tracing originated at the
#               client, then validate the whole observability surface
#               against checked-in schemas: the cross-process
#               ?trace=1 / ?trace=chrome span trees (router hop span
#               present, inbound trace ID preserved), the
#               /debug/scope flight-recorder views on every plane,
#               the access-log shard/cache stamps, the queue-wait +
#               runtime-health metrics series, and maotop -once -json
#   bench smoke every benchmark runs once, so the committed benchmarks
#               (including the worker-scaling benchmarks)
#               cannot silently rot
#   bench regression
#               maobench -json re-measures the repeated-relaxation and
#               repeated-pipeline benchmarks and MemoWarm, a memo hit
#               as a shard serves one (each op parses the bench unit
#               fresh, runs edit-resubmit's spec on a warm memo and
#               renders the unit), and fails on a >2x ns/op regression
#               against the checked-in BENCH_relax.json /
#               BENCH_pipeline.json / BENCH_memo.json baselines — the
#               guard that incremental relaxation never silently
#               degrades back to full rebuilds. A hit saves only a
#               fifth to a third of the cold op, so MemoWarm also
#               fails unless every function of every timed op hit
#               the memo
#   memo verify maobench -memo replays the corpus through the memo
#               repeatedly and fails unless every replay is
#               byte-identical to its cold run — memoized answers must
#               be observationally indistinguishable from
#               recomputation — with a hit rate above 0.9 for the
#               function-local specs (REDTEST:REDMOV:DCE:CONSTFOLD and
#               edit-resubmit's), and with no memo probe or store for
#               LOOP16:LSD:BRALIGN, which is not function-local
#   self-lint   mao --check over the committed corpus fixtures: the
#               checker must parse and lint generator output without
#               error-severity diagnostics (warnings are expected —
#               synthetic workloads take ABI liberties on purpose)
#   self-verify mao -verify over the committed corpus fixtures under
#               the full pass pipeline: every pass invocation must
#               certify clean (exit 0) — the translation validator's
#               zero-false-positive contract, asserted on real input
#   trace smoke mao --explain=json and -trace-chrome over a corpus
#               fixture, with both artifacts validated against the
#               checked-in schemas (internal/trace/testdata), so the
#               observability formats cannot drift silently
set -eu
cd "$(dirname "$0")"

echo "== gofmt"
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
	echo "files need gofmt:" >&2
	echo "$fmt" >&2
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test -race"
go test -race ./...

echo "== maoledger: the benchmark's API and metric contract"
(cd maoledger && GOFLAGS=-mod=mod go test ./...)

echo "== race-stress: parallel pass manager + per-worker relax state + memo + service + flight group + request layer + passes + maotop"
go test -race -count=3 ./internal/pass/ ./internal/passes/ ./internal/relax/ ./internal/memo/ ./internal/serve/ ./internal/router/ ./internal/flight/ ./internal/scope/ ./cmd/maotop/
go test -race -count=3 -run 'TestPipelineWorkerDeterminism|TestConcurrentPipelines' .
# The differential suite drives the pooled per-worker relax.States at 8
# workers with tracing on; repeat it specifically under the detector.
go test -race -count=2 -run 'TestDifferentialAfterPasses' ./internal/relax/

echo "== maolint: passes mutate IR only through pass.Ctx helpers and take analyses from the Ctx"
go run ./cmd/maolint ./internal/passes

echo "== fuzz smoke: parser"
go test -run '^$' -fuzz FuzzParseString -fuzztime 30s -fuzzminimizetime 1s ./internal/asm/

echo "== fuzz smoke: verifier zero-false-positive gate"
go test -run '^$' -fuzz FuzzVerifyEquiv -fuzztime 10s -fuzzminimizetime 1s ./internal/verify/

echo "== fuzz smoke: decode↔encode oracle"
go test -run '^$' -fuzz FuzzDecodeEncodeRoundtrip -fuzztime 10s -fuzzminimizetime 1s ./internal/x86/decode/

echo "== fuzz smoke: maoar1 archive framing"
go test -run '^$' -fuzz FuzzParseArchive -fuzztime 10s -fuzzminimizetime 1s ./internal/serve/

echo "== fuzz smoke: pass-spec parser"
go test -run '^$' -fuzz FuzzParsePipeline -fuzztime 10s -fuzzminimizetime 1s ./internal/pass/

echo "== fuzz smoke: X-Mao-Trace header parser"
go test -run '^$' -fuzz FuzzParseHeader -fuzztime 10s -fuzzminimizetime 1s ./internal/scope/

echo "== fuzz smoke: Prometheus exposition parser"
go test -run '^$' -fuzz FuzzParseProm -fuzztime 10s -fuzzminimizetime 1s ./internal/scope/

echo "== fuzz smoke: optimize-body decoder vs encoding/json"
go test -run '^$' -fuzz FuzzDecodeOptimizeRequest -fuzztime 10s -fuzzminimizetime 1s ./internal/cachekey/

echo "== benchmark smoke run"
go test -run '^$' -bench . -benchtime=1x ./...

echo "== bench regression: relaxation + pipeline vs checked-in baselines"
benchdir=$(mktemp -d)
go run ./cmd/maobench -json -outdir "$benchdir" -baseline .
rm -rf "$benchdir"

echo "== memo verify: warm replays byte-identical to cold runs, local specs hit > 0.9, LOOP16:LSD:BRALIGN bypasses"
go run ./cmd/maobench -memo -scale 0.05

echo "== self-lint corpus fixtures (mao --check)"
bin=$(mktemp -d)/mao
trap 'rm -rf "$(dirname "$bin")"' EXIT
go build -o "$bin" ./cmd/mao
for f in internal/corpus/testdata/*.s; do
	echo "-- $f"
	"$bin" --check "$f"
done

echo "== self-verify corpus fixtures (mao -verify, full pipeline)"
for f in internal/corpus/testdata/*.s; do
	echo "-- $f"
	"$bin" -verify --mao=REDTEST:REDMOV:REDZEXT:ADDADD:SCHED "$f" >/dev/null
done

echo "== decode-roundtrip: corpus assembled, lifted back, re-emitted byte-identically"
bindir=$(dirname "$bin")
for f in internal/corpus/testdata/*.s; do
	echo "-- $f"
	"$bin" -emit-binary "$bindir/rt.bin" "$f"
	"$bin" -binary -emit-binary "$bindir/rt2.bin" "$bindir/rt.bin"
	cmp "$bindir/rt.bin" "$bindir/rt2.bin" ||
		{ echo "decode roundtrip not byte-identical for $f" >&2; exit 1; }
done

echo "== trace smoke: --explain and Chrome trace export validate against their schemas"
tracedir=$(dirname "$bin")
fixture=internal/corpus/testdata/wl_164_gzip.s
"$bin" --mao=REDTEST:NOPKILL:LOOP16 --explain=json -trace-chrome "$tracedir/pipeline.trace" \
	"$fixture" >"$tracedir/explain.json"
go run ./internal/trace/schemacheck -schema internal/trace/testdata/explain.schema.json \
	"$tracedir/explain.json"
go run ./internal/trace/schemacheck -schema internal/trace/testdata/chrome_trace.schema.json \
	"$tracedir/pipeline.trace"
# --explain must attribute: the pipeline above synthesizes alignment
# nodes, so at least one "origin" must appear in the lineage.
grep -q '"origin":"LOOP16\[2\]"' "$tracedir/explain.json" ||
	{ echo "--explain=json carries no LOOP16[2] origin" >&2; exit 1; }

echo "== maod smoke: boot, probe, optimize, drain"
maod_bin=$(dirname "$bin")/maod
go build -o "$maod_bin" ./cmd/maod
maod_log=$(dirname "$bin")/maod.log
# Every polled log is created before its process starts: a background
# job opens its own redirection, so the polling sed could otherwise run
# before the file exists, and set -e would end the script.
: >"$maod_log"
"$maod_bin" -addr 127.0.0.1:0 -quiet >"$maod_log" 2>&1 &
maod_pid=$!
addr=""
for _ in $(seq 1 100); do
	addr=$(sed -n 's/^maod: listening on //p' "$maod_log")
	[ -n "$addr" ] && break
	sleep 0.1
done
[ -n "$addr" ] || { echo "maod never announced its address" >&2; cat "$maod_log" >&2; exit 1; }
base="http://$addr"
curl -fsS "$base/healthz" | grep -q ok
curl -fsS "$base/metrics" | grep -q '^maod_queue_depth'
printf '{"source":"\\t.text\\nf:\\n\\tsubl $16, %%r15d\\n\\ttestl %%r15d, %%r15d\\n\\tret\\n","spec":"REDTEST"}' |
	curl -fsS -X POST -H 'Content-Type: application/json' --data-binary @- "$base/v1/optimize" |
	grep -q '"assembly"'
kill -TERM "$maod_pid"
wait "$maod_pid" || { echo "maod did not drain cleanly (exit $?)" >&2; cat "$maod_log" >&2; exit 1; }
grep -q drained "$maod_log" || { echo "maod drain not logged" >&2; cat "$maod_log" >&2; exit 1; }

echo "== fleet smoke: 2 shards + maorouter, archive parity, reroute on shard death"
fleet=$(dirname "$bin")
go build -o "$fleet/maorouter" ./cmd/maorouter
go build -o "$fleet/maoload" ./cmd/maoload

# start_maod <logfile>: boots a daemon in the background, leaving its
# base URL in $maod_url and its pid in $maod_started_pid (no command
# substitution — a subshell would lose $!).
start_maod() {
	_log=$1
	: >"$_log"
	"$maod_bin" -addr 127.0.0.1:0 -quiet >"$_log" 2>&1 &
	maod_started_pid=$!
	_a=""
	for _ in $(seq 1 100); do
		_a=$(sed -n 's/^maod: listening on //p' "$_log")
		[ -n "$_a" ] && break
		sleep 0.1
	done
	[ -n "$_a" ] || { echo "maod never announced its address" >&2; cat "$_log" >&2; exit 1; }
	maod_url="http://$_a"
}

start_maod "$fleet/shard1.log"; shard1=$maod_url; shard1_pid=$maod_started_pid
start_maod "$fleet/shard2.log"; shard2=$maod_url; shard2_pid=$maod_started_pid
start_maod "$fleet/direct.log"; direct=$maod_url; direct_pid=$maod_started_pid

: >"$fleet/router.log"
"$fleet/maorouter" -addr 127.0.0.1:0 -shards "$shard1,$shard2" \
	-probe-interval 100ms >"$fleet/router.log" 2>&1 &
router_pid=$!
router=""
for _ in $(seq 1 100); do
	router=$(sed -n 's/^maorouter: listening on \([^ ]*\).*/\1/p' "$fleet/router.log")
	[ -n "$router" ] && break
	sleep 0.1
done
[ -n "$router" ] || { echo "maorouter never announced its address" >&2; cat "$fleet/router.log" >&2; exit 1; }
router="http://$router"

# Frame the corpus as one maoar1 archive: magic, name length, source
# length, newline, then name and source bytes back to back.
archive=$fleet/corpus.maoar
: >"$archive"
for f in internal/corpus/testdata/*.s; do
	printf 'maoar1 %d %d\n' "$(printf %s "$f" | wc -c)" "$(wc -c <"$f")" >>"$archive"
	printf %s "$f" >>"$archive"
	cat "$f" >>"$archive"
done

# The same archive through the router and through a single direct
# daemon must carry identical per-unit records. Completion order is
# timing-dependent and the cached flag / cache verdict vary (a unit
# can hit, miss, or coalesce onto a sibling's in-flight run), so: drop
# the trailer, strip "cached" and "cache", sort by record.
stream_records() {
	curl -fsS -X POST -H 'Content-Type: application/x-mao-archive' \
		--data-binary @"$archive" "$1/v1/optimize/archive?spec=REDTEST:REDMOV" |
		grep -v '"done"' |
		sed -e 's/,"cached":true//' -e 's/,"cache":"hit"//' -e 's/,"cache":"miss"//' \
			-e 's/,"cache":"coalesced"//' |
		sort
}
stream_records "$router" >"$fleet/via_router.ndjson"
stream_records "$direct" >"$fleet/via_direct.ndjson"
[ -s "$fleet/via_router.ndjson" ] || { echo "empty archive stream via router" >&2; exit 1; }
cmp "$fleet/via_router.ndjson" "$fleet/via_direct.ndjson" ||
	{ echo "archive via router differs from direct daemon" >&2; exit 1; }

# Kill shard1 mid maoload run: maod drains gracefully (503 to new
# work), the router fails the drained shard over, and the run must
# stay hitless — every request 200, rebalances visible on /metrics.
"$fleet/maoload" -addr "$router" -router -c 4 -duration 3s -n 0 \
	-clients 8 -zipf 1.2 -spec REDTEST internal/corpus/testdata/*.s \
	>"$fleet/load.log" 2>&1 &
load_pid=$!
sleep 1
kill -TERM "$shard1_pid"
wait "$load_pid" || { echo "maoload through the router failed" >&2; cat "$fleet/load.log" >&2; exit 1; }
grep -Eq 'classes: 2xx [0-9]+  4xx 0  5xx 0  transport-errors 0' "$fleet/load.log" ||
	{ echo "shard death was not hitless" >&2; cat "$fleet/load.log" >&2; exit 1; }
wait "$shard1_pid" || { echo "shard1 did not drain cleanly" >&2; cat "$fleet/shard1.log" >&2; exit 1; }
curl -fsS "$router/metrics" >"$fleet/router_metrics.txt"
grep -Eq 'maorouter_rebalances_total [1-9]' "$fleet/router_metrics.txt" ||
	{ echo "router never rebalanced after shard death" >&2; cat "$fleet/router_metrics.txt" >&2; exit 1; }
grep -q "maorouter_shard_healthy{shard=\"$shard1\"} 0" "$fleet/router_metrics.txt" ||
	{ echo "dead shard still marked healthy" >&2; cat "$fleet/router_metrics.txt" >&2; exit 1; }

kill -TERM "$router_pid" "$shard2_pid" "$direct_pid"
wait "$router_pid" || { echo "maorouter did not drain cleanly" >&2; cat "$fleet/router.log" >&2; exit 1; }
wait "$shard2_pid" "$direct_pid" 2>/dev/null || true

echo "== scope smoke: fleet tracing, flight recorders, maotop vs checked-in schemas"
go build -o "$fleet/maotop" ./cmd/maotop

# start_scoped_maod <logfile>: a shard with its debug plane on, both
# addresses parsed from the log ($maod_url, $maod_debug).
start_scoped_maod() {
	_log=$1
	: >"$_log"
	"$maod_bin" -addr 127.0.0.1:0 -debug-addr 127.0.0.1:0 -quiet >"$_log" 2>&1 &
	maod_started_pid=$!
	_a=""
	_d=""
	for _ in $(seq 1 100); do
		_a=$(sed -n 's/^maod: listening on //p' "$_log")
		_d=$(sed -n 's/^maod: debug (pprof, scope) listening on //p' "$_log")
		[ -n "$_a" ] && [ -n "$_d" ] && break
		sleep 0.1
	done
	[ -n "$_a" ] && [ -n "$_d" ] ||
		{ echo "maod never announced its addresses" >&2; cat "$_log" >&2; exit 1; }
	maod_url="http://$_a"
	maod_debug="http://$_d"
}

start_scoped_maod "$fleet/sshard1.log"; sshard1=$maod_url; sshard1_dbg=$maod_debug; sshard1_pid=$maod_started_pid
start_scoped_maod "$fleet/sshard2.log"; sshard2=$maod_url; sshard2_dbg=$maod_debug; sshard2_pid=$maod_started_pid

: >"$fleet/srouter.log"
"$fleet/maorouter" -addr 127.0.0.1:0 -debug-addr 127.0.0.1:0 -shards "$sshard1,$sshard2" \
	-probe-interval 100ms >"$fleet/srouter.log" 2>&1 &
srouter_pid=$!
srouter=""
srouter_dbg=""
for _ in $(seq 1 100); do
	srouter=$(sed -n 's/^maorouter: listening on \([^ ]*\).*/\1/p' "$fleet/srouter.log")
	srouter_dbg=$(sed -n 's/^maorouter: debug (pprof, scope) listening on //p' "$fleet/srouter.log")
	[ -n "$srouter" ] && [ -n "$srouter_dbg" ] && break
	sleep 0.1
done
[ -n "$srouter" ] && [ -n "$srouter_dbg" ] ||
	{ echo "maorouter never announced its addresses" >&2; cat "$fleet/srouter.log" >&2; exit 1; }
srouter="http://$srouter"
srouter_dbg="http://$srouter_dbg"

# Zipf load with tracing on: maoload originates X-Mao-Trace per
# request and fails itself if no response carries a span tree.
"$fleet/maoload" -addr "$srouter" -router -trace -c 4 -n 40 \
	-clients 4 -zipf 1.2 -spec REDTEST internal/corpus/testdata/*.s \
	>"$fleet/sload.log" 2>&1 ||
	{ echo "traced maoload through the router failed" >&2; cat "$fleet/sload.log" >&2; exit 1; }
grep -q 'traces: .* responses carried a span tree' "$fleet/sload.log" ||
	{ echo "maoload reported no traces" >&2; cat "$fleet/sload.log" >&2; exit 1; }

# Archive streaming latency: time-to-first-record is reported
# separately from total latency.
"$fleet/maoload" -addr "$srouter" -archive -c 2 -n 4 \
	-spec REDTEST internal/corpus/testdata/*.s >"$fleet/sarchive.log" 2>&1 ||
	{ echo "archive maoload failed" >&2; cat "$fleet/sarchive.log" >&2; exit 1; }
grep -q 'time-to-first-record: p50' "$fleet/sarchive.log" ||
	{ echo "no time-to-first-record report" >&2; cat "$fleet/sarchive.log" >&2; exit 1; }

# One traced request with a pinned context: the cross-process span
# tree must validate against the checked-in schemas, contain the
# router's hop span, and keep the inbound trace ID end to end.
trace_id=00112233445566778899aabbccddeeff
printf '{"source":"\\t.text\\nf:\\n\\tsubl $16, %%r15d\\n\\ttestl %%r15d, %%r15d\\n\\tret\\n","spec":"REDTEST"}' >"$fleet/req.json"
curl -fsS -X POST -H 'Content-Type: application/json' -H "X-Mao-Trace: $trace_id-0123456789abcdef" \
	--data-binary @"$fleet/req.json" "$srouter/v1/optimize?trace=1" >"$fleet/strace.json"
go run ./internal/trace/schemacheck -schema internal/scope/testdata/scope_trace.schema.json \
	"$fleet/strace.json"
grep -q '"kind":"hop"' "$fleet/strace.json" ||
	{ echo "trace lacks the router hop span" >&2; cat "$fleet/strace.json" >&2; exit 1; }
grep -q "\"trace_id\":\"$trace_id\"" "$fleet/strace.json" ||
	{ echo "inbound trace ID lost across the fleet" >&2; cat "$fleet/strace.json" >&2; exit 1; }
curl -fsS -X POST -H 'Content-Type: application/json' -H "X-Mao-Trace: $trace_id-0123456789abcdef" \
	--data-binary @"$fleet/req.json" "$srouter/v1/optimize?trace=chrome" >"$fleet/strace_chrome.json"
go run ./internal/trace/schemacheck -schema internal/scope/testdata/scope_chrome.schema.json \
	"$fleet/strace_chrome.json"

# Router access log: every proxied request is stamped with its shard
# and cache verdict.
grep -q '"shard":"http' "$fleet/srouter.log" ||
	{ echo "router access log lacks shard stamps" >&2; cat "$fleet/srouter.log" >&2; exit 1; }
grep -Eq '"cache":"(hit|miss|coalesced)"' "$fleet/srouter.log" ||
	{ echo "router access log lacks cache verdicts" >&2; cat "$fleet/srouter.log" >&2; exit 1; }

# Both exposition planes carry the queue-wait split and Go runtime
# health series.
curl -fsS "$sshard1/metrics" >"$fleet/sshard1_metrics.txt"
grep -q '^maod_queue_wait_seconds_bucket' "$fleet/sshard1_metrics.txt" ||
	{ echo "no maod_queue_wait_seconds histogram" >&2; exit 1; }
grep -q '^maod_go_goroutines' "$fleet/sshard1_metrics.txt" ||
	{ echo "no maod runtime health series" >&2; exit 1; }
curl -fsS "$srouter/metrics" | grep -q '^maorouter_go_goroutines' ||
	{ echo "no maorouter runtime health series" >&2; exit 1; }

# Flight recorders on every plane validate against the pinned schema.
for dbg in "$srouter_dbg" "$sshard1_dbg" "$sshard2_dbg"; do
	for view in recent slowest errors; do
		curl -fsS "$dbg/debug/scope/$view" >"$fleet/flight.json"
		go run ./internal/trace/schemacheck -schema internal/scope/testdata/scope_flight.schema.json \
			"$fleet/flight.json"
	done
done

# maotop aggregates the whole fleet; its -once -json output (which
# also fails on any unparseable /metrics page) matches its schema.
"$fleet/maotop" -router "$srouter" -debug "$srouter_dbg,$sshard1_dbg,$sshard2_dbg" \
	-once -json >"$fleet/maotop.json" ||
	{ echo "maotop -once failed" >&2; cat "$fleet/maotop.json" >&2; exit 1; }
go run ./internal/trace/schemacheck -schema internal/scope/testdata/maotop.schema.json \
	"$fleet/maotop.json"

kill -TERM "$srouter_pid" "$sshard1_pid" "$sshard2_pid"
wait "$srouter_pid" "$sshard1_pid" "$sshard2_pid" 2>/dev/null || true

echo "CI OK"
