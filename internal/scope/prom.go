package scope

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// A minimal Prometheus text-exposition parser. maotop polls the
// router's and every shard's /metrics through it, and the CI fleet
// step uses it (via maotop -once -json) to validate that both
// exposition planes stay well-formed. It supports exactly what the
// hand-rolled exporters emit: # HELP / # TYPE comments, and samples
// of the form
//
//	name{label="value",...} 1.23
//
// with label values escaped exactly as the text format defines: \\,
// \" and \n, and no other escape (the exporters quote every string
// label value with PromQuote).

// promEscaper escapes the three characters the text format requires
// escaped inside a label value.
var promEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// PromQuote renders v as a quoted label value of the Prometheus text
// format. Backslash, double quote and line feed are escaped, invalid
// UTF-8 becomes U+FFFD, and every other character stands for itself,
// so any string — a client ID from a request header included — yields
// one well-formed value, and ParseProm returns valid UTF-8 unchanged.
func PromQuote(v string) string {
	return `"` + promEscaper.Replace(strings.ToValidUTF8(v, "\uFFFD")) + `"`
}

// Sample is one exposition line: a metric name, its label set, and
// the value.
type Sample struct {
	Labels map[string]string
	Value  float64
}

// Metrics is a parsed exposition page: metric name → samples in page
// order.
type Metrics map[string][]Sample

// maxPromLine is the longest exposition line ParseProm accepts.
const maxPromLine = 1 << 20

// ParseProm parses a Prometheus text-format page. It returns an error
// for any line it cannot parse — the CI step leans on this to keep
// the exposition format honest.
func ParseProm(r io.Reader) (Metrics, error) {
	out := Metrics{}
	sc := bufio.NewScanner(r)
	// The buffer starts small and grows on demand up to the line
	// limit: maotop parses every plane on every poll, and most pages
	// have no line near 1 MiB.
	sc.Buffer(nil, maxPromLine)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, value, err := parsePromLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		out[name] = append(out[name], Sample{Labels: labels, Value: value})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parsePromLine(line string) (name string, labels map[string]string, value float64, err error) {
	rest := line
	if i := strings.IndexAny(rest, "{ "); i >= 0 && rest[i] == '{' {
		name = rest[:i]
		end := strings.LastIndex(rest, "}")
		if end < i {
			return "", nil, 0, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err = parsePromLabels(rest[i+1 : end])
		if err != nil {
			return "", nil, 0, fmt.Errorf("%w in %q", err, line)
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return "", nil, 0, fmt.Errorf("malformed sample %q", line)
		}
		name, rest = fields[0], fields[1]
	}
	if name == "" {
		return "", nil, 0, fmt.Errorf("missing metric name in %q", line)
	}
	v, perr := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if perr != nil {
		return "", nil, 0, fmt.Errorf("bad value in %q: %v", line, perr)
	}
	return name, labels, v, nil
}

func parsePromLabels(s string) (map[string]string, error) {
	labels := map[string]string{}
	for len(s) > 0 {
		eq := strings.Index(s, "=")
		if eq < 0 || len(s) < eq+2 || s[eq+1] != '"' {
			return nil, fmt.Errorf("malformed label in %q", s)
		}
		key := s[:eq]
		// Scan the quoted value decoding \\, \" and \n.
		var val strings.Builder
		i := eq + 2
		for {
			if i >= len(s) {
				return nil, fmt.Errorf("unterminated label value for %q", key)
			}
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				switch e := s[i+1]; e {
				case '\\', '"':
					val.WriteByte(e)
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, fmt.Errorf("invalid escape \\%c in label value for %q", e, key)
				}
				i += 2
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
			i++
		}
		labels[key] = val.String()
		s = s[i+1:]
		s = strings.TrimPrefix(s, ",")
	}
	return labels, nil
}

// Value returns the single unlabeled (or first) sample of a metric,
// ok=false when absent.
func (m Metrics) Value(name string) (float64, bool) {
	ss := m[name]
	if len(ss) == 0 {
		return 0, false
	}
	return ss[0].Value, true
}

// Labeled returns the value of the sample of name whose labels
// include all of want.
func (m Metrics) Labeled(name string, want map[string]string) (float64, bool) {
	for _, s := range m[name] {
		match := true
		for k, v := range want {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.Value, true
		}
	}
	return 0, false
}

// Quantile estimates quantile q (0..1) from a Prometheus cumulative
// histogram's _bucket samples (filtered by want, which may be nil),
// using linear interpolation within the winning bucket — the same
// estimate PromQL's histogram_quantile computes. ok is false when the
// histogram is absent or empty.
func (m Metrics) Quantile(name string, want map[string]string, q float64) (float64, bool) {
	type bucket struct {
		le  float64
		cum float64
	}
	var buckets []bucket
	for _, s := range m[name+"_bucket"] {
		match := true
		for k, v := range want {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		leStr := s.Labels["le"]
		le := 0.0
		if leStr == "+Inf" {
			le = inf()
		} else {
			var err error
			le, err = strconv.ParseFloat(leStr, 64)
			if err != nil {
				continue
			}
		}
		buckets = append(buckets, bucket{le: le, cum: s.Value})
	}
	if len(buckets) == 0 {
		return 0, false
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	total := buckets[len(buckets)-1].cum
	if total == 0 {
		return 0, false
	}
	rank := q * total
	prevLE, prevCum := 0.0, 0.0
	for _, b := range buckets {
		if b.cum >= rank {
			if b.le == inf() {
				return prevLE, true // open-ended bucket: report its lower bound
			}
			width := b.le - prevLE
			inBucket := b.cum - prevCum
			if inBucket <= 0 {
				return b.le, true
			}
			return prevLE + width*(rank-prevCum)/inBucket, true
		}
		prevLE, prevCum = b.le, b.cum
	}
	return buckets[len(buckets)-1].le, true
}

func inf() float64 { return math.Inf(1) }
