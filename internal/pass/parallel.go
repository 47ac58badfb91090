package pass

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mao/internal/ir"
	"mao/internal/trace"
)

// funcNodeCount counts the nodes of a function's span (including
// interleaved fragments) without allocating — the IR-size figure a
// function span records.
func funcNodeCount(f *ir.Function) int {
	n := 0
	for e := f.EntryLabel(); e != nil; e = e.Next() {
		n++
		if e == f.End() {
			break
		}
	}
	return n
}

// runFuncPass executes one FuncPass invocation over every function of
// the unit, sharding across the manager's worker pool when the pass is
// ParallelSafe. ctx is the invocation's template context (options,
// trace writer, stats sink, invocation index); invSpan is the index of
// the invocation's span when the manager traces (-1 otherwise). The
// results are indistinguishable from sequential execution at any
// worker count:
//
//   - Each worker mutates only its own function spans (the ParallelSafe
//     contract), so the unit's node list ends up byte-identical.
//   - Each function's invocation gets a private Stats sink; they are
//     merged in function order, and counter addition is commutative, so
//     the merged totals match the sequential run exactly.
//   - Trace output is buffered per function and flushed in function
//     order, so traces interleave exactly as they would sequentially.
//   - Trace spans are recorded into the per-function result slot and
//     added to the collector in function order, so the span stream is
//     deterministic; only wall times and worker ids vary.
//   - On failure, the error reported is the one from the lowest-index
//     failing function, wrapped "NAME[idx] on fname" with idx the
//     pipeline invocation index — the same stable attribution the
//     sequential path produces. (Unlike the sequential path, functions
//     after the failing one may already have been transformed; an
//     erroring pipeline leaves the unit in an unspecified state either
//     way.)
//
// Cancellation: once runCtx is done no further function is started
// (sequential path) or claimed (parallel path); functions already in
// flight run to completion, and the context error is reported with
// the same "NAME[idx]" attribution as a pass failure.
func (m *Manager) runFuncPass(runCtx context.Context, u *ir.Unit, p FuncPass, ctx *Ctx, idx int, invSpan int) error {
	name := p.Name()
	funcs := u.Functions()
	tracing := m.Tracer.Enabled()

	workers := m.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(funcs) {
		workers = len(funcs)
	}

	if workers <= 1 || !isParallelSafe(p) {
		sink := ctx.Stats
		for _, f := range funcs {
			if err := runCtx.Err(); err != nil {
				return fmt.Errorf("%s[%d]: %w", name, idx, err)
			}
			var start time.Duration
			var nodesBefore int
			if tracing {
				// Private per-function sink so the span records its own
				// stats delta; merged immediately after, in order.
				ctx.Stats = NewStats()
				nodesBefore = funcNodeCount(f)
				start = m.Tracer.Now()
			}
			ctx.fn = f
			changed, err := p.RunFunc(ctx, f)
			if tracing {
				dur := m.Tracer.Now() - start
				m.Tracer.Add(trace.Span{
					Kind:        trace.KindFunction,
					Ref:         trace.Ref{Pass: name, Index: idx},
					Function:    f.Name,
					Start:       start,
					Dur:         dur,
					NodesBefore: nodesBefore,
					NodesAfter:  funcNodeCount(f),
					Changed:     changed,
					Stats:       ctx.Stats.Map()[name],
					Parent:      invSpan,
				})
				sink.Merge(ctx.Stats)
			}
			if err != nil {
				return fmt.Errorf("%s[%d] on %s: %w", name, idx, f.Name, err)
			}
		}
		ctx.Stats = sink
		// A cancellation that lands during the last function is still
		// this invocation's error (matching the parallel path), not the
		// next pass's.
		if err := runCtx.Err(); err != nil {
			return fmt.Errorf("%s[%d]: %w", name, idx, err)
		}
		return nil
	}

	// Parallel path: one result slot per function, claimed by index so
	// the work distribution is dynamic but the merge order is fixed.
	type result struct {
		stats   *Stats
		trace   bytes.Buffer
		span    trace.Span
		changed bool
		err     error
	}
	results := make([]result, len(funcs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			// Each worker owns one relaxation state for its lifetime (a
			// State is single-goroutine); the pool carries partitions
			// across invocations of a run, and a state pooled by an
			// earlier run drops that run's unit here.
			wRelax := m.acquireRelax()
			defer m.releaseRelax(wRelax)
			wRelax.Hold(u)
			for {
				if runCtx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(funcs) {
					return
				}
				r := &results[i]
				r.stats = NewStats()
				fctx := &Ctx{
					Unit:      u,
					Opts:      ctx.Opts,
					Stats:     r.stats,
					Relax:     wRelax,
					an:        ctx.an,
					fn:        funcs[i],
					ctx:       runCtx,
					passName:  name,
					passIndex: idx,
				}
				if ctx.TraceW != nil {
					fctx.TraceW = &r.trace
				}
				var nodesBefore int
				var start time.Duration
				if tracing {
					nodesBefore = funcNodeCount(funcs[i])
					start = m.Tracer.Now()
				}
				r.changed, r.err = p.RunFunc(fctx, funcs[i])
				if tracing {
					r.span = trace.Span{
						Kind:        trace.KindFunction,
						Ref:         trace.Ref{Pass: name, Index: idx},
						Function:    funcs[i].Name,
						Worker:      worker,
						Start:       start,
						Dur:         m.Tracer.Now() - start,
						NodesBefore: nodesBefore,
						NodesAfter:  funcNodeCount(funcs[i]),
						Changed:     r.changed,
						Parent:      invSpan,
					}
				}
			}
		}(w)
	}
	wg.Wait()

	var firstErr error
	for i, f := range funcs {
		r := &results[i]
		if r.stats == nil {
			continue // never claimed (cancellation)
		}
		if ctx.TraceW != nil && r.trace.Len() > 0 {
			if _, err := ctx.TraceW.Write(r.trace.Bytes()); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("%s[%d]: trace: %w", name, idx, err)
			}
		}
		if tracing {
			r.span.Stats = r.stats.Map()[name]
			m.Tracer.Add(r.span)
		}
		ctx.Stats.Merge(r.stats)
		if r.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s[%d] on %s: %w", name, idx, f.Name, r.err)
		}
	}
	if firstErr == nil {
		if err := runCtx.Err(); err != nil {
			firstErr = fmt.Errorf("%s[%d]: %w", name, idx, err)
		}
	}
	return firstErr
}
