// Package exps holds the repository's named hypotheses (DESIGN.md §15) —
// the seeded, re-runnable experiments behind every scale claim made since
// PR 1. Each hypothesis declares its workload, runs it, and produces a
// hyp.Verdict whose canonical form is checked in under hypotheses/ and
// diffed by CI (`make hypotheses`).
//
// The registry:
//
//	h-warm-speedup       warm-started batched offline solve ≥2× cold (absorbs `make benchgate`)
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
	"flexile/internal/hyp"
)

// All returns the repository's hypothesis registry.
func All() (*hyp.Registry, error) {
	return hyp.NewRegistry(
		WarmSpeedup(),
		BatchAmortization(),
		OverloadShed(),
		EmuFidelity(),
		ServeSoak(),
		TraceOverhead(),
		MissLatency(),
	)
}

// rng is splitmix64 — the repo-standard seeded stream (internal/chaos,
// internal/load): tiny, fast, identical on every platform.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	x := r.s
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
