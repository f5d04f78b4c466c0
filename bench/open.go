package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"flexile/internal/load"
)

// The open-loop workload: a Poisson stream at three fixed rates, one after
// the other, against a registry whose working set (2×20 scenarios) is larger
// than its caches (8 entries each), so hits and misses mix and misses queue.
var (
	openRates = []float64{25, 50, 100} // requests per second, one phase each
	// openInFlight bounds the requests in flight. An open loop needs
	// rate × latency-limit of them (100/s × 0.5 s = 50) or the client
	// becomes the queue; goroutines blocked on a socket cost no CPU.
	openInFlight = 64
	// openPlanSeed fixes the shape of the stream — arrival times, tenants,
	// and the pattern of hot and cold picks — while the harness seed decides
	// which scenarios the picks land on. A plan drawn afresh per seed varies
	// its miss count by a tenth from seed to seed, which buries the
	// daemon's own run-to-run differences.
	openPlanSeed uint64 = 0x0f1e
)

const (
	openHotFraction = 0.9
	openHotSet      = 6
	openTenants     = 4
	openDeadline    = time.Second
	// openPhaseGap separates two phases, so that a queue the slower phase
	// left behind drains before the faster one starts.
	openPhaseGap = 100 * time.Millisecond
)

// openRequest is one planned request with its outcome.
type openRequest struct {
	key    queryKey
	tenant string
	due    time.Duration // offset from the stream's start
	phase  int
	openOutcome
}

// openOutcome is what one pass of the stream recorded for a request.
type openOutcome struct {
	lagMs    float64 // send time − due time: how late the generator ran
	ms       float64 // completion − due time
	missed   bool    // answered by a recomputation (X-Flexile-Cache miss/shared)
	shed     bool    // explicit, labelled refusal
	bad      bool    // failed the serving contract
	inFlight int     // requests in flight when this one was sent
}

// buildOpenPlan draws the three-phase stream from load.BuildPlan. Each
// artifact's scenario list is passed in a seeded order, so the hot set — the
// first openHotSet entries — and every cold pick land on seed-dependent
// scenarios.
func buildOpenPlan(env *serveEnv, phaseLen time.Duration) ([]openRequest, error) {
	scen := make(map[string][][]int)
	index := make(map[string]map[string]queryKey) // artifact → failed-set → key
	for a, art := range env.arts {
		order := env.scenarioOrder(a)
		index[art.name] = make(map[string]queryKey)
		for _, q := range order {
			failed := art.inst.Scenarios[q].Failed
			scen[art.name] = append(scen[art.name], failed)
			index[art.name][failedParam(failed)] = queryKey{a, q}
		}
	}
	var reqs []openRequest
	for phase, rate := range openRates {
		plan, err := load.BuildPlan(load.Config{
			Seed:        openPlanSeed + uint64(phase),
			QPS:         rate,
			Duration:    phaseLen,
			Tenants:     openTenants,
			Scenarios:   scen,
			HotFraction: openHotFraction,
			HotSet:      openHotSet,
		})
		if err != nil {
			return nil, err
		}
		for _, rq := range plan.Requests {
			q := rq.Queries[0]
			reqs = append(reqs, openRequest{
				key:    index[q.Artifact][failedParam(q.Failed)],
				tenant: rq.Tenant,
				due:    time.Duration(phase)*(phaseLen+openPhaseGap) + rq.At,
				phase:  phase,
			})
		}
	}
	return reqs, nil
}

// dispatch fires the stream open-loop: the dispatcher hands each request to
// the worker pool at its due time whether or not earlier ones have
// completed, and every latency is counted from the due time, so a stall —
// in the daemon or in this generator — is charged to the requests it
// delayed. (load.Run stamps its t0 at send time inside the request's
// goroutine, which hides exactly that.) Requests are built before the
// stream starts; between the due time and the send lie only the
// dispatcher's wake-up and one channel hand-off. The wake-up is a Go timer,
// which an idle runtime rounds up to the netpoller's whole milliseconds:
// the median request leaves 0.6 ms after it was due. Sleeping in the
// kernel instead (nanosleep) halves that but stalls for tens of
// milliseconds when both Ps are busy at the wake-up, and spinning costs the
// daemon a fifth of a core at 100 req/s; both were measured and dropped.
func (e *serveEnv) dispatch(ctx context.Context, reqs []openRequest, trace bool) error {
	httpReqs := make([]*http.Request, len(reqs))
	for i := range reqs {
		req, err := e.newGet(ctx, reqs[i].key)
		if err != nil {
			return err
		}
		req.Header.Set("X-Tenant", reqs[i].tenant)
		if trace && i%2 == 1 {
			req.Header.Set("traceparent", traceparent(i))
		}
		httpReqs[i] = req
		reqs[i].openOutcome = openOutcome{}
	}
	jobs := make(chan int, len(reqs)) // one slot per request: the dispatcher never blocks on a busy pool
	var inFlight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < openInFlight; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := range jobs {
				rq := &reqs[i]
				rq.inFlight = int(inFlight.Add(1))
				id := e.cfg.rec.begin("http request", -1, i, w)
				sent := time.Since(start)
				r, err := e.do(httpReqs[i], &buf)
				done := time.Since(start)
				e.cfg.rec.end(id)
				inFlight.Add(-1)
				rq.lagMs = ms(sent - rq.due)
				rq.ms = ms(done - rq.due)
				if err != nil {
					rq.bad = true // a transport error is a broken contract, not a refusal
					continue
				}
				rq.missed = r.status == http.StatusOK && r.cache != "hit"
				shed, jerr := e.judge(rq.key, r)
				rq.shed, rq.bad = shed, jerr != nil
			}
		}(w)
	}
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i := range reqs {
		if wait := reqs[i].due - time.Since(start); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
			case <-timer.C:
			}
		}
		if ctx.Err() != nil {
			break
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return ctx.Err()
}

// maxGenLagMs is the generator lag — p99 of send time − due time — beyond
// which a stream says more about the generator than about the daemon.
const maxGenLagMs = 5

// runServeOpen measures the daemon under an arrival schedule instead of a
// fixed client count.
func runServeOpen(ctx context.Context, cfg *runConfig, def *workloadDef) (*runResult, error) {
	env, err := startServe(ctx, cfg, []artifactSpec{ibm20, b420}, openInFlight,
		"-cache-size", "8", "-default-deadline", openDeadline.String())
	if err != nil {
		return nil, err
	}
	defer env.close()

	phaseLen := cfg.window / time.Duration(len(openRates))
	var reqs []openRequest
	planMs := cfg.rec.timed("load.BuildPlan", -1, 0, func() { reqs, err = buildOpenPlan(env, phaseLen) })
	if err != nil {
		return nil, err
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("serve-open: the plan is empty at a %v window", cfg.window)
	}
	// The oracle must know every scenario the stream can touch; the hot set
	// of each artifact is fetched once so the stream starts warm.
	var keys, warm []queryKey
	for a := range env.arts {
		for i, q := range env.scenarioOrder(a) {
			keys = append(keys, queryKey{a, q})
			if i < openHotSet {
				warm = append(warm, queryKey{a, q})
			}
		}
	}
	if err := env.prepare(ctx, keys, warm); err != nil {
		return nil, err
	}
	if injectFault == "corrupt-ref" {
		env.orc.corruptOne()
	}
	setup, setupWall := env.setupDone()

	var before promPage
	if cfg.trace {
		if before, err = env.d.scrape(env.client); err != nil {
			return nil, err
		}
	}
	cpu0, err := procCPU(env.d.pid())
	if err != nil {
		return nil, err
	}
	windowStart := time.Now()
	if err := env.dispatch(ctx, reqs, cfg.trace); err != nil {
		return nil, err
	}
	window := time.Since(windowStart)
	cpu1, err := procCPU(env.d.pid())
	if err != nil {
		return nil, err
	}
	cfg.host.sample()

	out := &runResult{attempted: len(reqs), samples: len(reqs)}
	in := opInput{setup: setup, setupWall: setupWall, hostMs: median(cfg.host.ms), window: window, cpu: cpu1 - cpu0, sent: len(reqs)}
	phases := make([]phaseStats, len(openRates))
	var lagMs, missMs, tracedMs, plainMs []float64
	sheds := 0
	for i, rq := range reqs {
		ph := &phases[rq.phase]
		ph.sent++
		ph.inFlight = append(ph.inFlight, rq.inFlight)
		lagMs = append(lagMs, rq.lagMs)
		switch {
		case rq.bad:
			out.failed++
		case rq.shed:
			sheds++
		default:
			in.work++
			in.latMs = append(in.latMs, rq.ms)
			if rq.missed {
				missMs = append(missMs, rq.ms)
			} else if cfg.trace && i%2 == 1 {
				tracedMs = append(tracedMs, rq.ms)
			} else {
				plainMs = append(plainMs, rq.ms)
			}
			if rq.ms <= def.limitMs {
				in.inLimit++
				ph.inLimit++
			}
		}
	}
	// A stream the generator itself delayed is invalid, not slow: its
	// latencies are not the daemon's. The result line has no word for that
	// (and no operation failed), so the run is marked in its record, and
	// summaries and comparisons leave it out.
	lagP99 := percentile(sortedCopy(lagMs), 99)
	if lagP99 > maxGenLagMs {
		out.invalid = fmt.Sprintf("generator lag p99 %.2f ms exceeds %d ms: the generator, not the daemon, set these latencies", lagP99, maxGenLagMs)
	} else {
		out.notef("generator lag p99 %.2f ms (above %d ms the run is invalid)", lagP99, maxGenLagMs)
	}
	if in.rssMB, err = peakRSSMB(env.d.pid()); err != nil {
		return nil, err
	}
	out.e2e, out.ops = e2eMetrics(in), opMetrics(in)

	if cfg.trace {
		after, err := env.d.scrape(env.client)
		if err != nil {
			return nil, err
		}
		out.layers = newLayerValues()
		daemonLayers(before, after, out.layers)
		l := out.layers
		l["load.plan_build_ms"] = planMs
		l["load.gen_lag_p99_ms"] = lagP99
		l["load.shed_frac"] = float64(sheds) / float64(len(reqs))
		l["serve.miss_p50_ms"] = median(missMs)
		if len(tracedMs) > 0 && len(plainMs) > 0 {
			l["obs.trace_overhead_frac"] = median(tracedMs)/median(plainMs) - 1
		}
		for p, rate := range openRates {
			frac := phases[p].withinLimit()
			l[fmt.Sprintf("load.r%g_within_limit_frac", rate)] = frac
			if frac >= 0.99 && !phases[p].backlogGrew() {
				l["load.max_rate_qps"] = rate
			}
		}
		env.close()
		if err := serveProbes(ctx, cfg, def, env, keys, out); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
	}
	return out, nil
}

// phaseStats is one fixed-rate phase of the open loop.
type phaseStats struct {
	sent, inLimit int
	inFlight      []int // requests in flight at each send, in send order
}

func (p *phaseStats) withinLimit() float64 {
	if p.sent == 0 {
		return 0
	}
	return float64(p.inLimit) / float64(p.sent)
}

// backlogGrew compares the mean number of requests in flight over the two
// halves of the phase: a queue that the daemon keeps up with stays level.
func (p *phaseStats) backlogGrew() bool {
	n := len(p.inFlight)
	if n < 8 {
		return false
	}
	mean := func(v []int) float64 {
		t := 0
		for _, x := range v {
			t += x
		}
		return float64(t) / float64(len(v))
	}
	return mean(p.inFlight[n/2:]) > 1.5*mean(p.inFlight[:n/2])+1
}
