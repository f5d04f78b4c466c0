package exps

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"time"

	"flexile/internal/experiments"
	"flexile/internal/hyp"
	"flexile/internal/load"
	"flexile/internal/obs"
	"flexile/internal/serve"
)

// TraceOverhead is h-trace-overhead: request-scoped tracing (DESIGN.md
// §16) at its production default sampling (serve.DefaultTraceEvery)
// produces well-formed traces. Two identical servers answer the same
// queries, one with tracing fully disabled (no ring) and one with the ring
// and default sampling. The checks: the untraced server still assigns
// X-Request-Id; a sampled W3C traceparent joins; a cache miss's trace has
// the five tiling stage spans, whose durations tile the served latency,
// with the recompute nested inside and the class round, nine levels and 18
// LP solves beneath it; and a batch records one nested span per group. What
// tracing costs is wall-clock, which the bench/ harness times
// (obs.trace_overhead_frac).
func TraceOverhead() hyp.Hypothesis {
	h := hyp.Hypothesis{
		Name:  "h-trace-overhead",
		Claim: "request traces at default sampling are well-formed: traceparent joins, a miss tiles into stage spans over 9 levels and 18 LP solves, a batch has a span per group",
	}
	h.Run = func(ctx context.Context, p hyp.Params) (*hyp.Verdict, error) {
		cfg := experiments.Config{Scale: experiments.Tiny, Seed: int64(p.Seed)}
		inst, err := cfg.SingleClass("IBM")
		if err != nil {
			return nil, err
		}
		if len(inst.Scenarios) < 4 {
			return nil, fmt.Errorf("h-trace-overhead: want >=4 scenarios, got %d", len(inst.Scenarios))
		}
		scratch, cleanup, err := p.ScratchDir()
		if err != nil {
			return nil, err
		}
		if cleanup != nil {
			defer cleanup()
		}
		path := filepath.Join(scratch, "h-trace.flxa")
		if err := writeArtifact(inst, path); err != nil {
			return nil, err
		}

		base := serve.Config{CacheSize: len(inst.Scenarios), Workers: 2}
		plain, err := serve.New(path, base)
		if err != nil {
			return nil, err
		}
		defer plain.Close()
		traceCfg := base
		ring := obs.NewTraceRing(0, 0, 0)
		traceCfg.Ring = ring
		traceCfg.TraceEvery = serve.DefaultTraceEvery
		traced, err := serve.New(path, traceCfg)
		if err != nil {
			return nil, err
		}
		defer traced.Close()
		tsPlain := httptest.NewServer(plain)
		defer tsPlain.Close()
		tsTraced := httptest.NewServer(traced)
		defer tsTraced.Close()
		plainC, tracedC := load.NewClient(tsPlain.URL, 1), load.NewClient(tsTraced.URL, 1)
		defer plainC.Close()
		defer tracedC.Close()

		scenario := func(q int) load.Query { return load.Query{Failed: inst.Scenarios[q].Failed} }
		fire := func(c *load.Client, rq load.Request) (load.Outcome, error) {
			outs, err := fireExact(ctx, c, rq)
			if err != nil {
				return load.Outcome{}, err
			}
			return outs[0], nil
		}
		// traceID is the trace id of the sampled traceparent load derives
		// from a request's ID: 00-<32 hex trace id>-<span id>-01.
		traceID := func(rq load.Request) string { return rq.TraceParent()[3:35] }
		// The ring entry lands after the handler returns, which can race the
		// client seeing the response; poll briefly.
		findTrace := func(traceID string) (*obs.Trace, error) {
			deadline := time.Now().Add(2 * time.Second)
			for {
				for _, s := range ring.Recent() {
					if s.TraceID == traceID {
						return s, nil
					}
				}
				if time.Now().After(deadline) {
					return nil, fmt.Errorf("trace %s never reached the ring", traceID)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}

		// Even with tracing disabled the server assigns and echoes
		// X-Request-Id.
		out, err := fire(plainC, load.Request{Queries: []load.Query{scenario(0)}})
		if err != nil {
			return nil, err
		}
		idEchoed := 0
		if out.RequestID != "" {
			idEchoed = 1
		}

		// A sampled traceparent (seed-derived, nonzero ids) joins: the
		// response keeps the trace id, and the first request for scenario 1
		// is a guaranteed cache miss whose five tiling spans — admit, parse,
		// cache, flight, write — sum to (at most, and most of) the served
		// duration, with the recompute nested inside and the solve beneath
		// it descending into one class round of nine levels and their LP
		// solves.
		miss := load.Request{ID: fmt.Sprintf("h-trace-%x-miss", p.Seed), Queries: []load.Query{scenario(1)}}
		sentTrace := traceID(miss)
		out, err = fire(tracedC, miss)
		if err != nil {
			return nil, err
		}
		joined := 0
		if strings.HasPrefix(out.TraceParent, "00-"+sentTrace+"-") {
			joined = 1
		}
		snap, err := findTrace(sentTrace)
		if err != nil {
			return nil, err
		}
		tiling, tilingDur := 0, time.Duration(0)
		nested := map[string]int{}
		for _, sp := range snap.Spans {
			if sp.Nested {
				nested[sp.Name]++
				continue
			}
			tiling++
			tilingDur += sp.Dur
		}
		sumTiles := 0
		if tilingDur <= snap.Dur && tilingDur >= snap.Dur/2 {
			sumTiles = 1
		}

		// Batch fan-out: a traced POST /v1/alloc/batch over two cold keys
		// records one nested cache span per group under the same trace.
		batch := load.Request{ID: fmt.Sprintf("h-trace-%x-batch", p.Seed), Queries: []load.Query{scenario(2), scenario(3)}}
		batchTrace := traceID(batch)
		if _, err := fire(tracedC, batch); err != nil {
			return nil, err
		}
		bsnap, err := findTrace(batchTrace)
		if err != nil {
			return nil, err
		}
		groupSpans := 0
		for _, sp := range bsnap.Spans {
			if sp.Nested && strings.HasPrefix(sp.Name, "cache:") {
				groupSpans++
			}
		}

		v := hyp.NewVerdict(h, p)
		v.Workloadf("topology", "IBM")
		v.Workloadf("scale", "tiny")
		v.Workloadf("scenarios", "%d", len(inst.Scenarios))
		v.Workloadf("ring", "default (recent %d, slowest %d, errored %d)",
			obs.DefaultRingRecent, obs.DefaultRingSlowest, obs.DefaultRingErrored)
		v.Workloadf("trace-every", "%d (serve.DefaultTraceEvery)", serve.DefaultTraceEvery)
		v.Check("id-echoed-untraced", "==", float64(idEchoed), 1)
		v.Check("traceparent-joined", "==", float64(joined), 1)
		v.Check("miss-tiling-spans", "==", float64(tiling), 5)
		v.Check("miss-has-recompute-span", "==", float64(nested["recompute"]), 1)
		v.Check("miss-class-round-spans", "==", float64(nested["class-round"]), 1)
		v.Check("miss-level-spans", "==", float64(nested["level"]), 9)
		v.Check("miss-lp-solve-spans", "==", float64(nested["lp-solve"]), 18)
		v.Check("span-sum-tiles", "==", float64(sumTiles), 1)
		v.Check("batch-group-spans", "==", float64(groupSpans), 2)
		return v.Finalize(), nil
	}
	return h
}
