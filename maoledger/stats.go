package main

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// bestQuartile is the quartile of xs on the better side: Q3 when
// higher is better, Q1 when lower is. Every round replays the same
// work on a fresh fleet, so rounds differ only by interference from
// the rest of the machine, which only ever slows a round down.
func bestQuartile(xs []float64, higher bool) float64 {
	q1, _, q3 := quartiles(xs)
	if higher {
		return q3
	}
	return q1
}

// percentile is the nearest-rank p-th percentile of ds, in ms.
func percentile(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return math.NaN()
	}
	s := slices.Sorted(slices.Values(ds))
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return float64(s[max(i, 0)]) / float64(time.Millisecond)
}

// quartiles returns Q1, Q2, Q3 exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so spreads read the same as the acceptance
// check's.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	ld := len(s)
	if ld == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := float64(i*m - j*n)
		q[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q[0], q[1], q[2]
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs is the cumulative count of heap bytes allocated.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// resetPeakRSS resets the kernel's resident-set high-water mark of
// this process to its current RSS, so each round's peak is its own.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// cpuTicks reads the machine-wide CPU time counters of /proc/stat:
// ticks stolen by the hypervisor, and all ticks. Their deltas over a
// phase give the share of the machine's CPU time that was stolen.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, s := range f[1:9] {
		v, _ := strconv.ParseUint(s, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSKB reads the kernel's resident-set high-water mark (VmHWM).
func peakRSSKB() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb
		}
	}
	return 0
}
