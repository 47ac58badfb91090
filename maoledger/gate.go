package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"

	"mao"
	"mao/internal/asm"
	"mao/internal/ir"
	"mao/internal/relax"
	"mao/internal/uarch"
	"mao/internal/uarch/exec"
	"mao/internal/uarch/sim"
)

// reference is the expected answer for one unit's content, computed by
// the cold uncached pipeline: the mao facade on a fresh parse, with no
// memo, no caches and one worker.
type reference struct {
	assembly string
	diags    []byte // JSON of the static-check diagnostics (archive units)
}

// references computes the reference of every distinct unit content in
// reqs, two units at a time.
func references(w *workload, reqs ...[]request) (map[string]reference, error) {
	type job struct{ key, name, src string }
	seen := map[string]bool{}
	var jobs []job
	for _, rs := range reqs {
		for _, r := range rs {
			for _, u := range r.Units {
				k := sourceKey(u.Source)
				if !seen[k] {
					seen[k] = true
					jobs = append(jobs, job{k, u.Name, u.Source})
				}
			}
		}
	}
	out := make(map[string]reference, len(jobs))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	ch := make(chan job)
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				ref, err := coldReference(j.name, j.src, w.Spec, w.Archive)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference for %s: %w", j.name, err)
				}
				out[j.key] = ref
				mu.Unlock()
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
	return out, firstErr
}

func coldReference(name, src, spec string, withDiags bool) (reference, error) {
	u, err := mao.ParseString(name, src)
	if err != nil {
		return reference{}, err
	}
	if _, err := mao.RunPipelineParallel(u, spec, mao.Options{Workers: 1}); err != nil {
		return reference{}, err
	}
	ref := reference{assembly: u.String()}
	if withDiags {
		if ref.diags, err = diagsJSON(mao.Check(u)); err != nil {
			return reference{}, err
		}
	}
	return ref, nil
}

// diagsJSON renders diagnostics canonically; none and empty compare equal.
func diagsJSON(d []mao.Diag) ([]byte, error) {
	if len(d) == 0 {
		return []byte("null"), nil
	}
	return json.Marshal(d)
}

// archiveLine is one NDJSON line of an archive stream: a unit record,
// or (Done set) the trailer.
type archiveLine struct {
	Index    int             `json:"index"`
	Status   int             `json:"status"`
	Assembly string          `json:"assembly"`
	Diags    []mao.Diag      `json:"diags"`
	Verify   []verifyVerdict `json:"verify"`
	Error    string          `json:"error"`

	Done   bool `json:"done"`
	Units  int  `json:"units"`
	OK     int  `json:"ok"`
	Failed int  `json:"failed"`
}

type verifyVerdict struct {
	Pass    string   `json:"pass"`
	Refuted []string `json:"refuted"`
}

// checkOutcome verifies one answer against the references and returns
// the optimized assembly of each of the request's units, in order, and
// whether a single answer was spliced whole from the shard's memo (its
// stats carry a MEMO row). Any error counts the operation as failed.
func checkOutcome(w *workload, r request, o outcome, refs map[string]reference) (got []string, memoHit bool, err error) {
	if o.err != nil {
		return nil, false, fmt.Errorf("transport: %w", o.err)
	}
	if o.status != http.StatusOK {
		return nil, false, fmt.Errorf("status %d: %s", o.status, bytes.TrimSpace(o.body))
	}
	if !w.Archive {
		var resp struct {
			Assembly string                    `json:"assembly"`
			Stats    map[string]map[string]int `json:"stats"`
		}
		if err := json.Unmarshal(o.body, &resp); err != nil {
			return nil, false, fmt.Errorf("decoding response: %w", err)
		}
		u := r.Units[0]
		if resp.Assembly != refs[sourceKey(u.Source)].assembly {
			return nil, false, fmt.Errorf("%s: assembly differs from the cold pipeline", u.Name)
		}
		_, memoHit = resp.Stats["MEMO"]
		return []string{resp.Assembly}, memoHit, nil
	}

	got = make([]string, len(r.Units))
	seen := make([]bool, len(r.Units))
	passes := len(strings.Split(w.Spec, ":"))
	trailer := false
	for _, line := range bytes.Split(bytes.TrimRight(o.body, "\n"), []byte("\n")) {
		if trailer {
			return nil, false, fmt.Errorf("data after the trailer")
		}
		var l archiveLine
		if err := json.Unmarshal(line, &l); err != nil {
			return nil, false, fmt.Errorf("decoding record: %w", err)
		}
		if l.Done {
			trailer = true
			if l.Units != len(r.Units) || l.OK != len(r.Units) || l.Failed != 0 {
				return nil, false, fmt.Errorf("trailer reports %d/%d ok, %d failed", l.OK, l.Units, l.Failed)
			}
			continue
		}
		if l.Index < 0 || l.Index >= len(r.Units) || seen[l.Index] {
			return nil, false, fmt.Errorf("record index %d out of range or repeated", l.Index)
		}
		seen[l.Index] = true
		u := r.Units[l.Index]
		if l.Status != http.StatusOK {
			return nil, false, fmt.Errorf("%s: record status %d: %s", u.Name, l.Status, l.Error)
		}
		ref := refs[sourceKey(u.Source)]
		if l.Assembly != ref.assembly {
			return nil, false, fmt.Errorf("%s: assembly differs from the cold pipeline", u.Name)
		}
		if d, err := diagsJSON(l.Diags); err != nil || !bytes.Equal(d, ref.diags) {
			return nil, false, fmt.Errorf("%s: check diagnostics differ from the cold pipeline", u.Name)
		}
		if len(l.Verify) != passes {
			return nil, false, fmt.Errorf("%s: %d verify verdicts for %d passes", u.Name, len(l.Verify), passes)
		}
		for _, v := range l.Verify {
			if len(v.Refuted) > 0 {
				return nil, false, fmt.Errorf("%s: %s refuted on %v", u.Name, v.Pass, v.Refuted)
			}
		}
		got[l.Index] = l.Assembly
	}
	if !trailer {
		return nil, false, fmt.Errorf("stream ended without a trailer")
	}
	for i, ok := range seen {
		if !ok {
			return nil, false, fmt.Errorf("short stream: no record for unit %d", i)
		}
	}
	return got, false, nil
}

// execResult is one executed unit's observable end state.
type execResult struct {
	state  *exec.State
	stores map[uint64]int // non-stack store address -> widest access
	cycles int64
	text   int64
}

// Code addresses differ legitimately between a unit and its optimized
// form, and stack slots hold return addresses; both are excluded.
const stackWindow = exec.StackTop - 0x100000

func isTextAddr(v uint64) bool { return v >= exec.TextBase && v < exec.DataBase }

func sameValue(a, b uint64) bool { return a == b || (isTextAddr(a) && isTextAddr(b)) }

// runUnit relaxes and executes u from entry on the functional executor,
// feeding a Core-2 timing model.
func runUnit(u *ir.Unit, entry string) (*execResult, error) {
	layout, err := relax.Relax(u, nil)
	if err != nil {
		return nil, err
	}
	r := &execResult{stores: map[uint64]int{}, text: layout.SectionEnd[".text"]}
	s := sim.New(uarch.Core2())
	res, err := exec.Run(&exec.Config{
		Unit: u, Layout: layout, Entry: entry, MaxInsts: 4_000_000,
		OnEvent: func(ev exec.Event) {
			s.Feed(ev)
			if ev.HasStore && (ev.StoreAddr < stackWindow || ev.StoreAddr > exec.StackTop) {
				r.stores[ev.StoreAddr] = max(r.stores[ev.StoreAddr], ev.AccessLen)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	r.state = res.State
	r.cycles = int64(s.Finish().Cycles)
	return r, nil
}

// sameEndState compares a source run with its optimized run: every
// register, and every non-stack location the source stored to.
func sameEndState(src, opt *execResult) error {
	s, o := src.state, opt.state
	for i := range s.GPR {
		if !sameValue(s.GPR[i], o.GPR[i]) {
			return fmt.Errorf("GPR %d: %#x vs %#x", i, s.GPR[i], o.GPR[i])
		}
		if s.XMM[i] != o.XMM[i] {
			return fmt.Errorf("XMM %d: %#x vs %#x", i, s.XMM[i], o.XMM[i])
		}
	}
	for addr, width := range src.stores {
		if a, b := s.ReadMem(addr, width), o.ReadMem(addr, width); !sameValue(a, b) {
			return fmt.Errorf("mem[%#x]: %#x vs %#x", addr, a, b)
		}
	}
	return nil
}

// sampleResult is the exec check over the sim sample.
type sampleResult struct {
	textBytes, cycles int64
	failures          []error
}

// checkSample executes every sample unit's source and the program's
// optimized answer for it on the executor (an interpreter independent
// of the optimizer), compares their end states, and sums the optimized
// code's .text bytes and simulated Core-2 cycles.
func checkSample(sample []unit, answers map[string]string) sampleResult {
	var out sampleResult
	for _, u := range sample {
		if err := func() error {
			opt, ok := answers[sourceKey(u.Source)]
			if !ok {
				return fmt.Errorf("no answer")
			}
			su, err := asm.ParseString(u.Name, u.Source)
			if err != nil {
				return err
			}
			ou, err := asm.ParseString(u.Name, opt)
			if err != nil {
				return fmt.Errorf("parsing the answer: %w", err)
			}
			sr, err := runUnit(su, u.Entry)
			if err != nil {
				return fmt.Errorf("source: %w", err)
			}
			or, err := runUnit(ou, u.Entry)
			if err != nil {
				return fmt.Errorf("optimized: %w", err)
			}
			if err := sameEndState(sr, or); err != nil {
				return err
			}
			out.textBytes += or.text
			out.cycles += or.cycles
			return nil
		}(); err != nil {
			out.failures = append(out.failures, fmt.Errorf("sim sample %s: %w", u.Name, err))
		}
	}
	return out
}
