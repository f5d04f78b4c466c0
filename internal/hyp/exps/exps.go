// Package exps holds the repository's named hypotheses (DESIGN.md §15) —
// the seeded, re-runnable experiments behind every scale claim made since
// PR 1. Each hypothesis declares its workload, runs it, and produces a
// hyp.Verdict whose canonical form is checked in under hypotheses/ and
// diffed by CI (`make hypotheses`).
//
// The registry:
//
//	h-batch-amortization POST /v1/alloc/batch at batch=32 amortizes ≥3× over single GETs
//	h-overload-shed      under overload every response is an admitted 200 or an explicit shed
//	h-emu-fidelity       fluid/packet emulation tracks the model (the paper's Fig. 9)
//	h-serve-soak         emulation-backed soak: delivered bandwidth from replaying a live
//	                     flexile-serve's allocations through the emulator matches the model
//	                     within the Fig. 9 tolerance, across a mid-soak SIGHUP reload
//	h-trace-overhead     request-scoped tracing costs <=2% on the warm-cache alloc path,
//	                     and traces are well-formed (traceparent join, tiling stage spans)
//	h-miss-latency       the online allocation behind a cache miss is >=4x faster than the
//	                     per-level-rebuild reference at <=1/5 of its pivots, served bytes unchanged
package exps

import (
	"context"
	"fmt"
	"time"

	"flexile/internal/hyp"
	"flexile/internal/load"
)

// All returns the repository's hypothesis registry.
func All() (*hyp.Registry, error) {
	return hyp.NewRegistry(
		BatchAmortization(),
		OverloadShed(),
		EmuFidelity(),
		ServeSoak(),
		TraceOverhead(),
		MissLatency(),
	)
}

// fireExact fires rq and returns its outcomes and round-trip latency. The
// serving hypotheses put no pressure on their servers, so anything but an
// unmarked 200 for every query is an error.
func fireExact(ctx context.Context, c *load.Client, rq load.Request) ([]load.Outcome, time.Duration, error) {
	res := c.Fire(ctx, rq, 0)
	if res.Err != nil {
		return nil, 0, res.Err
	}
	for i, out := range res.Outcomes {
		if class, err := load.Contract(nil, rq, i, out); class != load.Exact {
			return nil, 0, fmt.Errorf("query %v: %v answer, status %d shed=%q: %v", rq.Queries[i], class, out.Status, out.Shed, err)
		}
	}
	return res.Outcomes, res.Latency, nil
}
