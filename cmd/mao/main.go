// Mao is the command-line driver of the micro-architectural optimizer:
// it reads an assembly file, runs the pass pipeline given by --mao=
// options, and (when the pipeline contains the ASM pass) emits
// assembly again, exactly following the paper's invocation style:
//
//	mao --mao=LFIND=trace[2]:ASM=o[/dev/null] in.s
//	mao --mao=REDTEST:REDMOV:ASM=o[out.s] in.s
//
// Pass order on the command line is pass invocation order; reading and
// parsing the input is implicitly the first pass. Multiple --mao=
// options concatenate. -stats prints per-pass transformation counts,
// -passes lists the catalog.
//
// The static checker (see mao/internal/check) is reachable two ways:
//
//	mao --check in.s            lint the unit, compiler-style text on stderr
//	mao --check=json in.s       same, JSON diagnostics on stdout
//	mao -certify --mao=... in.s certify every pass invocation of the pipeline
//
// The translation validator (see mao/internal/verify) proves every
// pass invocation observationally equivalent to its input:
//
//	mao -verify --mao=... in.s       refutations as diagnostics, exit 2
//	mao -verify=json --mao=... in.s  same, JSON diagnostics on stdout
//
// --check runs after the pipeline (if any), so it lints what the
// passes produced; with no --mao it lints the input. When --check,
// -verify and/or -certify are combined, their diagnostics merge into
// one deduplicated, sorted stream. The driver exits with status 2 when
// the checker reports an error-severity diagnostic, the certifier
// attributes a violation, or the verifier refutes an invocation.
//
// The tracing and provenance plane (see mao/internal/trace) is
// byte-transparent and off by default:
//
//	mao -timings --mao=... in.s          per-pass timing table on stderr
//	mao -trace-json s.jsonl --mao=... in.s    spans as JSON lines
//	mao -trace-chrome t.trace --mao=... in.s  chrome://tracing / Perfetto
//	mao --explain --mao=... in.s         assembly with "# pass: NAME[idx]"
//	mao --explain=json --mao=... in.s    per-instruction lineage JSON
//
// Like the original, passes may also be loaded dynamically: build a
// plugin exporting RegisterMAOPasses (see testdata/plugin) with
//
//	go build -buildmode=plugin -o mypass.so ./mypassdir
//
// and load it with -plugin mypass.so; its passes then appear in the
// registry by name like any built-in.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"plugin"
	"strings"

	"mao"
	"mao/internal/check"
	"mao/internal/pass"
	"mao/internal/trace"
	"mao/internal/verify"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mao: ")

	var specs, plugins multiFlag
	checkMode := modeFlag{name: "check"}
	explainMode := modeFlag{name: "explain"}
	verifyMode := modeFlag{name: "verify"}
	flag.Var(&specs, "mao", "pass pipeline, e.g. REDTEST:REDMOV:ASM=o[out.s] (repeatable)")
	flag.Var(&plugins, "plugin", "load additional passes from a Go plugin .so (repeatable)")
	flag.Var(&checkMode, "check", "run the static checker over the result; --check=json for JSON output")
	flag.Var(&explainMode, "explain", "emit provenance-annotated assembly on stdout; --explain=json for per-instruction lineage JSON")
	flag.Var(&verifyMode, "verify", "translation-validate every pass invocation; -verify=json for JSON diagnostics")
	certify := flag.Bool("certify", false, "certify every pass invocation with the static checker")
	stats := flag.Bool("stats", false, "print per-pass transformation statistics")
	timings := flag.Bool("timings", false, "print a per-pass timing table (from pipeline spans) on stderr")
	traceJSON := flag.String("trace-json", "", "write pipeline spans as JSON lines to `file`")
	traceChrome := flag.String("trace-chrome", "", "write pipeline spans in Chrome trace-event format to `file` (chrome://tracing, Perfetto)")
	list := flag.Bool("passes", false, "list registered passes")
	workers := flag.Int("j", 0, "worker pool for parallel-safe function passes (0 = GOMAXPROCS, 1 = sequential)")
	binMode := binaryFlag{}
	flag.Var(&binMode, "binary", "treat the input as raw x86-64 machine code instead of assembly; -binary=hex for hex text input")
	base := flag.Int64("base", 0, "load `address` of the first byte of -binary input (shapes synthetic label names)")
	emitBin := flag.String("emit-binary", "", "after the pipeline, write the relaxed .text image as raw machine code to `file`")
	flag.Parse()

	// Dynamically loaded passes, as in the original MAO ("passes can
	// be statically linked into MAO, or dynamically loaded as
	// plug-ins"). A plugin exports RegisterMAOPasses, which calls
	// pass.Register for each pass it provides. Every plugin is
	// attempted so one bad .so on a long command line doesn't hide the
	// errors of the others; any failure aborts before the pipeline.
	if errs := loadPlugins(plugins); len(errs) > 0 {
		for _, err := range errs {
			log.Print(err)
		}
		os.Exit(1)
	}

	if *list {
		for _, name := range mao.Passes() {
			p := pass.Lookup(name)
			fmt.Printf("%-12s %s\n", name, p.Description())
		}
		return
	}
	if flag.NArg() != 1 {
		log.Fatal("usage: mao [--mao=PIPELINE]... input.s  (or: mao -binary [--mao=...] input.bin)")
	}

	// The span collector is created before the input is read so the
	// binary front end's KindDecode span lands on it. Collection is
	// byte- and stats-transparent, but the collector is only attached
	// when an observer asked for it — the default run stays at the
	// nil-check fast path.
	var tracer *trace.Collector
	if *timings || *traceJSON != "" || *traceChrome != "" {
		tracer = trace.NewCollector()
	}

	u, err := loadInput(flag.Arg(0), binMode, *base, tracer)
	if err != nil {
		log.Fatal(err)
	}
	mgr, err := pass.NewManager(strings.Join(specs, ":"))
	if err != nil {
		log.Fatal(err)
	}
	mgr.Workers = *workers
	var cert *check.Certifier
	var vcert *verify.Certifier
	var hooks pass.Hooks
	if *certify {
		cert = &check.Certifier{}
		hooks = append(hooks, cert)
	}
	if verifyMode.set {
		vcert = &verify.Certifier{}
		hooks = append(hooks, vcert)
	}
	switch len(hooks) {
	case 0:
	case 1:
		mgr.Hook = hooks[0]
	default:
		mgr.Hook = hooks
	}
	if tracer != nil {
		mgr.Tracer = tracer
		if vcert != nil {
			vcert.Tracer = mgr.Tracer
		}
	}
	st, err := mgr.Run(u)
	if err != nil {
		log.Fatal(err)
	}
	if err := u.Analyze(); err != nil {
		log.Fatal(err)
	}
	if *stats {
		fmt.Fprint(os.Stderr, st.String())
	}
	if *emitBin != "" {
		layout, err := mao.Relax(u)
		if err != nil {
			log.Fatal(err)
		}
		img, err := layout.Image(u, ".text")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*emitBin, img, 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if *timings {
		if err := trace.WriteSummary(os.Stderr, mgr.Tracer); err != nil {
			log.Fatal(err)
		}
	}
	if err := exportSpans(mgr.Tracer, *traceJSON, trace.WriteJSON); err != nil {
		log.Fatal(err)
	}
	if err := exportSpans(mgr.Tracer, *traceChrome, trace.WriteChromeTrace); err != nil {
		log.Fatal(err)
	}
	if explainMode.set {
		if explainMode.json {
			err = trace.WriteExplainJSON(os.Stdout, u)
		} else {
			err = trace.WriteExplainText(os.Stdout, u)
		}
		if err != nil {
			log.Fatal(err)
		}
	}

	// Diagnostic reporting. --check, -verify and -certify all speak
	// check.Diag; when more than one producer is active their outputs
	// merge into ONE deduplicated, sorted stream instead of interleaved
	// per-producer reports. Certifier violations that lack node-level
	// provenance are attributed to the offending invocation via Origin,
	// which is excluded from the dedup key.
	exit := 0
	merged := checkMode.set || verifyMode.set
	var diags []check.Diag
	if cert != nil {
		if merged {
			diags = append(diags, violationDiags(cert.Violations)...)
		} else {
			for _, v := range cert.Violations {
				fmt.Fprintln(os.Stderr, v)
			}
		}
		if len(cert.Violations) > 0 {
			exit = 2
		}
	}
	if vcert != nil {
		diags = append(diags, violationDiags(vcert.Violations)...)
		if len(vcert.Violations) > 0 {
			exit = 2
		}
	}
	if checkMode.set {
		diags = append(diags, mao.Check(u)...)
	}
	if merged {
		diags = dedupDiags(diags)
		check.Sort(diags)
		if checkMode.json || verifyMode.json {
			err = check.WriteJSON(os.Stdout, diags)
		} else {
			err = check.WriteText(os.Stderr, diags)
		}
		if err != nil {
			log.Fatal(err)
		}
		if check.MaxSeverity(diags) >= check.SevError {
			exit = 2
		}
	}
	os.Exit(exit)
}

// loadInput reads the input file as assembly or, under -binary, as a
// raw (or hex-text) machine-code blob lifted through the decoder.
// "-" reads standard input, so JIT buffers pipe straight in.
func loadInput(path string, bin binaryFlag, base int64, tracer *trace.Collector) (*mao.Unit, error) {
	if !bin.set {
		if path == "-" {
			b, err := io.ReadAll(os.Stdin)
			if err != nil {
				return nil, err
			}
			return mao.ParseString("<stdin>", string(b))
		}
		return mao.ParseFile(path)
	}
	name := path
	var raw []byte
	var err error
	if path == "-" {
		name = "<stdin>"
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	if bin.hex {
		if raw, err = decodeHexText(raw); err != nil {
			return nil, fmt.Errorf("%s: %v", name, err)
		}
	}
	return mao.DecodeBinary(name, raw, base, tracer)
}

// decodeHexText turns hex text (whitespace and newlines ignored, an
// optional leading 0x) into bytes.
func decodeHexText(b []byte) ([]byte, error) {
	s := strings.Map(func(r rune) rune {
		if r == ' ' || r == '\t' || r == '\n' || r == '\r' {
			return -1
		}
		return r
	}, string(b))
	s = strings.TrimPrefix(s, "0x")
	return hex.DecodeString(s)
}

// binaryFlag implements -binary as an optional-value boolean flag:
// bare -binary reads raw bytes, -binary=hex reads hex text.
type binaryFlag struct {
	set bool
	hex bool
}

func (b *binaryFlag) String() string {
	switch {
	case b.hex:
		return "hex"
	case b.set:
		return "true"
	}
	return ""
}

func (b *binaryFlag) Set(v string) error {
	switch v {
	case "", "true":
		b.set, b.hex = true, false
	case "false":
		b.set, b.hex = false, false
	case "hex":
		b.set, b.hex = true, true
	default:
		return fmt.Errorf("invalid -binary mode %q (want hex)", v)
	}
	return nil
}

// IsBoolFlag lets the flag package accept the bare form.
func (b *binaryFlag) IsBoolFlag() bool { return true }

// violationDiags projects certifier violations onto plain diagnostics
// for the merged stream, stamping the offending invocation into Origin
// when the anchored node carried none.
func violationDiags(vs []check.Violation) []check.Diag {
	out := make([]check.Diag, 0, len(vs))
	for _, v := range vs {
		d := v.Diag
		if d.Origin == "" {
			d.Origin = fmt.Sprintf("%s[%d]", v.Pass, v.Index)
		}
		out = append(out, d)
	}
	return out
}

// dedupDiags drops diagnostics whose identity (Diag.Key: rule,
// function, message — position- and provenance-independent) was
// already seen, keeping the first occurrence.
func dedupDiags(diags []check.Diag) []check.Diag {
	seen := make(map[string]bool, len(diags))
	out := diags[:0]
	for _, d := range diags {
		if k := d.Key(); !seen[k] {
			seen[k] = true
			out = append(out, d)
		}
	}
	return out
}

// loadPlugins opens and registers every plugin, collecting all errors
// instead of stopping at the first.
func loadPlugins(plugins []string) []error {
	var errs []error
	for _, so := range plugins {
		pl, err := plugin.Open(so)
		if err != nil {
			errs = append(errs, fmt.Errorf("plugin %s: %v", so, err))
			continue
		}
		sym, err := pl.Lookup("RegisterMAOPasses")
		if err != nil {
			errs = append(errs, fmt.Errorf("plugin %s: %v", so, err))
			continue
		}
		reg, ok := sym.(func())
		if !ok {
			errs = append(errs, fmt.Errorf("plugin %s: RegisterMAOPasses must be func()", so))
			continue
		}
		reg()
	}
	return errs
}

// modeFlag implements --check, --explain and -verify as optional-value
// boolean flags: bare --check selects text output, --check=json JSON.
type modeFlag struct {
	name string // flag name, for error messages
	set  bool
	json bool
}

func (m *modeFlag) String() string {
	switch {
	case m.json:
		return "json"
	case m.set:
		return "true"
	}
	return ""
}

func (m *modeFlag) Set(v string) error {
	switch v {
	case "", "true":
		m.set, m.json = true, false
	case "false":
		m.set, m.json = false, false
	case "json":
		m.set, m.json = true, true
	default:
		return fmt.Errorf("invalid --%s mode %q (want json)", m.name, v)
	}
	return nil
}

// IsBoolFlag lets the flag package accept the bare form.
func (m *modeFlag) IsBoolFlag() bool { return true }

// exportSpans writes the collected spans to path with the given
// exporter; a no-op when no path was requested.
func exportSpans(c *trace.Collector, path string, write func(io.Writer, *trace.Collector) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, c); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// multiFlag accumulates repeated --mao options.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ":") }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}
