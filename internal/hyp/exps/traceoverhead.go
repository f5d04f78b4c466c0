package exps

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"flexile/internal/experiments"
	"flexile/internal/hyp"
	"flexile/internal/load"
	"flexile/internal/obs"
	"flexile/internal/serve"
)

// TraceOverhead is h-trace-overhead: the PR 10 claim that request-scoped
// tracing (DESIGN.md §16), at its production default sampling
// (serve.DefaultTraceEvery), costs at most 2% on the warm-cache serving
// path. Two identical servers — one with tracing fully disabled (no
// ring), one with the ring and default sampling — answer the same warm
// GET; the overhead is composed as 1 + delta/wire, where delta is the
// in-process per-request server-side cost difference (median over
// request-interleaved chunks) and wire is the median client-observed
// latency of the same warm GET over loopback HTTP (see the measurement
// comment below for why a direct wire A/B cannot resolve 2%). The ratio
// is wall-clock and therefore volatile; the functional side of the
// tentpole — W3C traceparent join, the five tiling stage spans of a
// cache miss, span durations tiling the served latency, per-group nested
// spans surviving batch fan-out — is deterministic and canonical.
func TraceOverhead() hyp.Hypothesis {
	h := hyp.Hypothesis{
		Name:  "h-trace-overhead",
		Claim: "request tracing at default sampling costs <=2% on the warm-cache alloc path, and traces are well-formed",
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
		fire := func(c *load.Client, rq load.Request) (load.Outcome, time.Duration, error) {
			outs, lat, err := fireExact(ctx, c, rq)
			if err != nil {
				return load.Outcome{}, 0, err
			}
			return outs[0], lat, nil
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

		// --- deterministic functional checks -------------------------------

		// Satellite: even with tracing disabled the server assigns and
		// echoes X-Request-Id.
		warm := load.Request{Queries: []load.Query{scenario(0)}}
		out, _, err := fire(plainC, warm)
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
		out, _, err = fire(tracedC, miss)
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
		if _, _, err := fire(tracedC, batch); err != nil {
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

		// --- the overhead measurement --------------------------------------

		// A direct A/B timing of the two servers over loopback HTTP cannot
		// resolve a sub-2% signal on shared hardware: the round trip is
		// ~25-30µs of mostly syscalls and scheduling whose run-to-run noise
		// is itself several percent. So the overhead is composed from two
		// terms that each have high signal-to-noise:
		//
		//   1. the server-side per-request cost delta at default sampling,
		//      measured in-process (ServeHTTP against a recorder), where
		//      the handler costs only a few µs and the amortized tracing
		//      delta is ~10% of it — request-level interleaving cancels
		//      common-mode noise inside each chunk's delta, and the median
		//      over chunks discards scheduler outliers;
		//   2. the client-observed latency of a warm GET over loopback
		//      HTTP (median), the cost that delta amortizes over on the
		//      wire.
		//
		// overhead = 1 + delta/wire. Both terms are recorded.
		for i := 0; i < 16; i++ {
			if _, _, err := fire(plainC, warm); err != nil {
				return nil, err
			}
		}
		wireReq, err := load.NewRequest(ctx, "", warm, 0)
		if err != nil {
			return nil, err
		}
		target := wireReq.URL.RequestURI()
		reqPlain := httptest.NewRequest(http.MethodGet, target, nil)
		reqTraced := httptest.NewRequest(http.MethodGet, target, nil)
		// Warm the traced server's cache in-process (its wire cache was
		// never touched) and both code paths' allocators.
		for i := 0; i < 64; i++ {
			plain.ServeHTTP(httptest.NewRecorder(), reqPlain)
			traced.ServeHTTP(httptest.NewRecorder(), reqTraced)
		}
		// n per chunk is a multiple of the sampling rate so every chunk
		// traces the same number of requests.
		const chunks, n = 64, 16 * serve.DefaultTraceEvery
		deltas := make([]float64, 0, chunks)
		for c := 0; c < chunks; c++ {
			var tPlain, tTraced time.Duration
			for i := 0; i < n; i++ {
				if (c+i)%2 == 0 {
					t0 := time.Now()
					plain.ServeHTTP(httptest.NewRecorder(), reqPlain)
					t1 := time.Now()
					traced.ServeHTTP(httptest.NewRecorder(), reqTraced)
					tPlain += t1.Sub(t0)
					tTraced += time.Since(t1)
				} else {
					t0 := time.Now()
					traced.ServeHTTP(httptest.NewRecorder(), reqTraced)
					t1 := time.Now()
					plain.ServeHTTP(httptest.NewRecorder(), reqPlain)
					tTraced += t1.Sub(t0)
					tPlain += time.Since(t1)
				}
			}
			deltas = append(deltas, float64(tTraced-tPlain)/float64(n))
		}
		sort.Float64s(deltas)
		delta := deltas[len(deltas)/2]
		if len(deltas)%2 == 0 {
			delta = (delta + deltas[len(deltas)/2-1]) / 2
		}
		wire := make([]float64, 0, 256)
		for i := 0; i < 256; i++ {
			_, lat, err := fire(plainC, warm)
			if err != nil {
				return nil, err
			}
			wire = append(wire, float64(lat))
		}
		sort.Float64s(wire)
		wireMedian := wire[len(wire)/2]
		overhead := 1 + delta/wireMedian
		p.Logf("h-trace-overhead: amortized delta %.0fns/req (median of %d chunks of %d), warm GET %.0fns median: %.4fx",
			delta, chunks, n, wireMedian, overhead)

		v := hyp.NewVerdict(h, p)
		v.Workloadf("topology", "IBM")
		v.Workloadf("scale", "tiny")
		v.Workloadf("scenarios", "%d", len(inst.Scenarios))
		v.Workloadf("ring", "default (recent %d, slowest %d, errored %d)",
			obs.DefaultRingRecent, obs.DefaultRingSlowest, obs.DefaultRingErrored)
		v.Workloadf("trace-every", "%d (serve.DefaultTraceEvery)", serve.DefaultTraceEvery)
		v.Workloadf("estimator", "1 + delta/wire: in-process per-request delta (median of %d request-interleaved chunks of %d) over median warm GET loopback latency", chunks, n)
		v.Check("id-echoed-untraced", "==", float64(idEchoed), 1)
		v.Check("traceparent-joined", "==", float64(joined), 1)
		v.Check("miss-tiling-spans", "==", float64(tiling), 5)
		v.Check("miss-has-recompute-span", "==", float64(nested["recompute"]), 1)
		v.Check("miss-class-round-spans", "==", float64(nested["class-round"]), 1)
		v.Check("miss-level-spans", "==", float64(nested["level"]), 9)
		v.Check("miss-lp-solve-spans", "==", float64(nested["lp-solve"]), 18)
		v.Check("span-sum-tiles", "==", float64(sumTiles), 1)
		v.Check("batch-group-spans", "==", float64(groupSpans), 2)
		v.CheckVolatile("trace-overhead-x", "<=", overhead, 1.02)
		v.Measure("amortized-delta-ns", delta)
		v.Measure("warm-get-wire-ns", wireMedian)
		v.Measure("trace-overhead-x", overhead)
		return v.Finalize(), nil
	}
	return h
}
