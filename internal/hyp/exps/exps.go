// Package exps holds the repository's named hypotheses (DESIGN.md §15) —
// the seeded, re-runnable experiments behind its count and correctness
// claims. Each hypothesis declares its workload, runs it, and produces a
// hyp.Verdict whose canonical form is checked in under hypotheses/ and
// diffed by CI (`make hypotheses`).
//
// The registry:
//
//	h-batch-amortization POST /v1/alloc/batch at batch=32 answers every entry with the
//	                     bytes of the single GET for its query
//	h-overload-shed      under overload every response is an admitted 200 or an explicit shed
//	h-emu-fidelity       fluid/packet emulation tracks the model (the paper's Fig. 9)
//	h-serve-soak         emulation-backed soak: delivered bandwidth from replaying a live
//	                     flexile-serve's allocations through the emulator matches the model
//	                     within the Fig. 9 tolerance, across a mid-soak SIGHUP reload
//	h-trace-overhead     traces are well-formed at default sampling (traceparent join,
//	                     tiling stage spans, per-group batch spans)
//	h-miss-latency       the online allocation behind a cache miss is 18 LP solves at a
//	                     pinned pivot count, served bytes unchanged
//
// Every check is a count, a bit-identity, a fidelity gap or contract
// accounting; wall-clock claims belong to the bench/ harness.
package exps

import (
	"context"
	"fmt"
	"os"

	"flexile"
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

// fireExact fires rq and returns its outcomes. The serving hypotheses put
// no pressure on their servers, so anything but a 200 for every query is an
// error.
func fireExact(ctx context.Context, c *load.Client, rq load.Request) ([]load.Outcome, error) {
	res := c.Fire(ctx, rq, 0)
	if res.Err != nil {
		return nil, res.Err
	}
	for i, out := range res.Outcomes {
		if class, err := load.Contract(nil, rq, i, out); class != load.Exact {
			return nil, fmt.Errorf("query %v: %v answer, status %d shed=%q: %v", rq.Queries[i], class, out.Status, out.Shed, err)
		}
	}
	return res.Outcomes, nil
}

// writeArtifact designs inst with the default options and writes its
// serving artifact to path: the fixture every serving hypothesis loads.
func writeArtifact(inst *flexile.Instance, path string) error {
	design, err := flexile.Design(inst, flexile.DesignOptions{})
	if err != nil {
		return err
	}
	blob, err := flexile.ExportArtifact(inst, design, flexile.DesignOptions{})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
