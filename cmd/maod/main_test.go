package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

func buildMaod(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "maod")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// startMaod boots the daemon on a free port and returns its base URL,
// the running command, and a buffer accumulating its stderr.
func startMaod(t *testing.T, extraFlags ...string) (string, *exec.Cmd, *lockedBuffer) {
	t.Helper()
	bin := buildMaod(t)
	args := append([]string{"-addr", "127.0.0.1:0"}, extraFlags...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	// The first stderr line announces the bound address.
	sc := bufio.NewScanner(stderr)
	if !sc.Scan() {
		t.Fatalf("daemon exited before announcing its address: %v", sc.Err())
	}
	line := sc.Text()
	const marker = "listening on "
	i := strings.Index(line, marker)
	if i < 0 {
		t.Fatalf("unexpected first line: %q", line)
	}
	addr := line[i+len(marker):]
	buf := &lockedBuffer{}
	go func() {
		for sc.Scan() {
			buf.append(sc.Text() + "\n")
		}
	}()
	return "http://" + addr, cmd, buf
}

type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuffer) append(s string) { l.mu.Lock(); l.b.WriteString(s); l.mu.Unlock() }
func (l *lockedBuffer) String() string  { l.mu.Lock(); defer l.mu.Unlock(); return l.b.String() }

const daemonSource = `	.text
	.type f,@function
f:
	subl $16, %r15d
	testl %r15d, %r15d
	je .Lz
	movq 24(%rsp), %rdx
	movq 24(%rsp), %rcx
.Lz:
	ret
	.size f,.-f
`

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

func TestDaemonEndToEnd(t *testing.T) {
	base, _, _ := startMaod(t)

	if code, body := getBody(t, base+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, body := getBody(t, base+"/readyz"); code != 200 || !strings.Contains(body, "ready") {
		t.Errorf("/readyz = %d %q", code, body)
	}

	req, _ := json.Marshal(map[string]any{
		"source": daemonSource, "spec": "REDTEST:REDMOV",
	})
	resp, err := http.Post(base+"/v1/optimize", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("/v1/optimize = %d: %s", resp.StatusCode, b)
	}
	var out struct {
		Assembly string                    `json:"assembly"`
		Stats    map[string]map[string]int `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.Assembly, "testl") {
		t.Error("redundant test survived the service pipeline")
	}
	if out.Stats["REDTEST"]["removed"] != 1 {
		t.Errorf("stats = %v", out.Stats)
	}

	if code, body := getBody(t, base+"/metrics"); code != 200 ||
		!strings.Contains(body, `maod_requests_total{code="200"}`) ||
		!strings.Contains(body, "maod_request_duration_seconds_bucket") {
		t.Errorf("/metrics = %d, missing request metrics:\n%s", code, body)
	}
}

// drainUnit returns a unit of n copies of daemonSource's function,
// every label prefixed with prefix: distinct prefixes make distinct
// code, which neither the result cache, the flight group nor the
// pipeline memo can share.
func drainUnit(prefix string, n int) string {
	var b strings.Builder
	b.WriteString("\t.text\n")
	for k := 0; k < n; k++ {
		f := fmt.Sprintf("%s_f%d", prefix, k)
		fmt.Fprintf(&b, "\t.globl %[1]s\n\t.type %[1]s,@function\n%[1]s:\n"+
			"\tsubl $16, %%r15d\n\ttestl %%r15d, %%r15d\n\tje .L%[1]s\n"+
			"\tmovq 24(%%rsp), %%rdx\n\tmovq 24(%%rsp), %%rcx\n"+
			".L%[1]s:\n\tret\n\t.size %[1]s,.-%[1]s\n", f)
	}
	return b.String()
}

// metricValue returns the value of an unlabeled sample on a /metrics
// page, or -1 when the page does not carry it.
func metricValue(page, name string) float64 {
	for _, line := range strings.Split(page, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				return f
			}
		}
	}
	return -1
}

// TestDaemonGracefulDrain delivers SIGTERM while admitted requests are
// still queued behind the daemon's only worker and asserts that every
// request completes with 200 and the daemon exits 0.
func TestDaemonGracefulDrain(t *testing.T) {
	base, cmd, errlog := startMaod(t, "-workers", "1", "-quiet")

	const n = 6
	codes := make(chan int, n)
	for i := 0; i < n; i++ {
		req, _ := json.Marshal(map[string]any{
			"name":   fmt.Sprintf("drain%d.s", i),
			"source": drainUnit(fmt.Sprintf("u%d", i), 2000),
			"spec":   "REDZEXT:REDTEST:REDMOV:ADDADD:SCHED:LOOP16",
		})
		go func() {
			resp, err := http.Post(base+"/v1/optimize", "application/json", bytes.NewReader(req))
			if err != nil {
				t.Errorf("request during drain: %v", err)
				codes <- 0
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}

	// Wait until every request is admitted (picked up or queued) with
	// at least one still waiting for the worker, then drain.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, page := getBody(t, base+"/metrics")
		queued := metricValue(page, "maod_queue_depth")
		if queued >= 1 && queued+metricValue(page, "maod_batch_jobs_total") == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("requests never queued behind the worker:\n%s", page)
		}
		time.Sleep(2 * time.Millisecond)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		select {
		case code := <-codes:
			if code != 200 {
				t.Errorf("admitted request during drain: status %d", code)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("admitted request never completed during drain")
		}
	}
	if err := cmd.Wait(); err != nil {
		t.Errorf("daemon exit status after SIGTERM: %v\nstderr:\n%s", err, errlog.String())
	}
	if !strings.Contains(errlog.String(), "drained") {
		t.Errorf("drain not logged:\n%s", errlog.String())
	}
}

func TestDaemonRejectsArgs(t *testing.T) {
	bin := buildMaod(t)
	out, err := exec.Command(bin, "positional").CombinedOutput()
	if err == nil {
		t.Errorf("positional args must fail:\n%s", out)
	}
}
