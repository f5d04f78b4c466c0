package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"flexile"
	"flexile/internal/obs"
	flexscheme "flexile/internal/scheme/flexile"
	"flexile/internal/serve"
	"flexile/internal/te"
)

// daemonLayers turns two scrapes of the daemon's /metrics page, taken
// around the timed window, into per-layer numbers: stage means from the
// stage-duration histograms, cache and admission counts, and the solver
// work behind each recomputation.
func daemonLayers(before, after promPage, out map[string]float64) {
	const stages = "flexile_serve_stage_duration_seconds"
	for _, st := range []string{"admit", "parse", "cache", "flight", "write"} {
		out["serve.stage."+st+"_us"] = after.meanDelta(before, stages, `{stage="`+st+`"}`) * 1e6
	}
	out["serve.recompute_ms"] = after.meanDelta(before, stages, `{stage="recompute"}`) * 1e3
	out["serve.queue_wait_ms"] = after.meanDelta(before, "flexile_serve_queue_wait_seconds", "") * 1e3
	hits := after.delta(before, "flexile_serve_cache_hits_total")
	misses := after.delta(before, "flexile_serve_cache_misses_total")
	out["serve.hits"] = hits
	out["serve.misses"] = misses
	if hits+misses > 0 {
		out["serve.hit_ratio"] = hits / (hits + misses)
	}
	out["serve.deadline_shed"] = after.delta(before, "flexile_serve_deadline_shed_total") +
		after.delta(before, "flexile_serve_deadline_expired_total")
	out["par.gate_waits"] = after.delta(before, "flexile_serve_gate_waits_total")
	out["par.flight_shared"] = after.delta(before, "flexile_serve_flight_shared_total")

	// Solver work is reported per recomputation, the daemon's unit of
	// expensive work, as the design workloads report it per Design call.
	n := after.delta(before, "flexile_serve_recomputes_total")
	if n <= 0 {
		return
	}
	p1 := after.delta(before, `flexile_lp_pivots_total{phase="1"}`)
	p2 := after.delta(before, `flexile_lp_pivots_total{phase="2"}`)
	solveS := after.delta(before, "flexile_lp_solve_duration_seconds_sum")
	out["lp.solves"] = after.delta(before, "flexile_lp_solves_total") / n
	out["lp.pivots"] = (p1 + p2) / n
	out["lp.phase1_pivots"] = p1 / n
	out["lp.degenerate_pivots"] = after.delta(before, "flexile_lp_degenerate_pivots_total") / n
	out["lp.refactorizations"] = after.delta(before, "flexile_lp_refactorizations_total") / n
	out["lp.warm_starts"] = after.delta(before, "flexile_lp_warm_starts_total") / n
	out["lp.warm_start_rejected"] = after.delta(before, "flexile_lp_warm_start_rejected_total") / n
	out["lp.solve_ms_sum"] = solveS * 1e3 / n
	if p1+p2 > 0 {
		out["lp.us_per_pivot"] = solveS * 1e6 / (p1 + p2)
	}
}

// serveProbes measures the serving path's layers in this process, after the
// daemon has stopped: artifact encode/decode, request parsing, admission
// primitives, the online allocation under the handler, and the handler
// itself on an httptest recorder (the served path minus net/http).
func serveProbes(ctx context.Context, cfg *runConfig, def *workloadDef, env *serveEnv, keys []queryKey, res *runResult) error {
	out, rec := res.layers, cfg.rec
	a := env.arts[0]
	if err := constructionProbes(rec, a.spec, out); err != nil {
		return err
	}
	if err := lpProbes(rec, a.inst, out); err != nil {
		return err
	}

	// Artifact round trip.
	out["serve.artifact_bytes"] = float64(len(a.blob))
	var err error
	out["serve.build_encode_ms"] = rec.timed("serve.Build+Encode", -1, 0, func() {
		var art *serve.Artifact
		if art, err = serve.Build(a.inst, a.design, flexile.DesignOptions{}); err == nil {
			art.Encode()
		}
	})
	if err != nil {
		return err
	}
	var art *serve.Artifact
	out["serve.decode_ms"] = rec.timed("serve.Decode", -1, 0, func() { art, err = serve.Decode(a.blob) })
	if err != nil {
		return err
	}
	out["serve.instantiate_ms"] = rec.timed("serve.Artifact.Instantiate", -1, 0, func() { _, _, _, err = art.Instantiate() })
	if err != nil {
		return err
	}

	// Parsing and admission primitives.
	reps := 200000
	if cfg.smoke {
		reps = 2000
	}
	param := failedParam(a.inst.Scenarios[keys[0].q].Failed)
	out["serve.parse_ns"] = rec.timed("serve.ParseQuery", -1, 0, func() {
		for i := 0; i < reps; i++ {
			serve.ParseQuery(param)
		}
	}) * 1e6 / float64(reps)
	admitProbes(rec, reps, out)

	// The online allocation (flexscheme.Online: critical floors, then
	// te.MaxMin) and te.MaxMin alone on the same scenarios without floors.
	// te.MaxMin takes no context, so a process-global collector counts the
	// LP work under it.
	col := obs.New()
	obs.SetGlobal(col)
	var onlineMs, maxminMs []float64
	for i := 0; i < 3 && i < len(keys) && err == nil; i++ {
		k := keys[i]
		ka := env.arts[k.art]
		onlineMs = append(onlineMs, rec.timed("flexscheme.Online", -1, i, func() {
			_, err = flexscheme.Online(ka.inst, ka.design, k.q, flexile.DesignOptions{})
		}))
	}
	m0 := col.Snapshot()
	for i := 0; i < 3 && i < len(keys) && err == nil; i++ {
		k := keys[i]
		ka := env.arts[k.art]
		maxminMs = append(maxminMs, rec.timed("te.MaxMin", -1, i, func() {
			_, err = te.MaxMin(ka.inst, ka.inst.Scenarios[k.q], te.MaxMinOptions{})
		}))
	}
	obs.SetGlobal(nil)
	if err != nil {
		return err
	}
	m1 := col.Snapshot()
	out["flexile.online_ms"] = median(onlineMs)
	out["te.maxmin_ms"] = median(maxminMs)
	out["te.maxmin_lp_solves"] = float64(m1.LP.Solves-m0.LP.Solves) / float64(len(maxminMs))
	out["te.maxmin_pivots"] = float64(m1.LP.Pivots-m0.LP.Pivots) / float64(len(maxminMs))

	// The handler without net/http. Which forms are measured follows which
	// the workload sends.
	switch def.name {
	case "serve-hit":
		if err := handlerHit(ctx, cfg, env, keys, out); err != nil {
			return err
		}
		out["http.overhead_us"] = res.ops["op_p50_ms"]*1e3 - out["serve.handler_hit_us"]
	case "serve-miss":
		// Every scenario the closed loop cycled through, so the median is
		// over the same mix as op_p50_ms.
		if err := handlerMiss(ctx, cfg, env, keys, len(keys), out); err != nil {
			return err
		}
	case "serve-open":
		if err := handlerHit(ctx, cfg, env, keys, out); err != nil {
			return err
		}
		if err := handlerMiss(ctx, cfg, env, keys, 6, out); err != nil {
			return err
		}
	case "serve-batch":
		if err := handlerBatch(ctx, cfg, env, keys, out); err != nil {
			return err
		}
	}
	return nil
}

// serveInProcess calls h.ServeHTTP for req on a recorder and returns the
// elapsed milliseconds and the recorder.
func serveInProcess(h http.Handler, req *http.Request) (float64, *httptest.ResponseRecorder) {
	w := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(w, req)
	return ms(time.Since(t0)), w
}

func inProcessGet(e *serveEnv, k queryKey) *http.Request {
	return httptest.NewRequest(http.MethodGet, "/v1/alloc?failed="+failedParam(e.arts[k.art].inst.Scenarios[k.q].Failed), nil)
}

// firstArtKeys keeps the keys of the environment's first artifact: the
// single-artifact in-process server can answer only those.
func firstArtKeys(keys []queryKey) []queryKey {
	var out []queryKey
	for _, k := range keys {
		if k.art == 0 {
			out = append(out, k)
		}
	}
	return out
}

func handlerHit(ctx context.Context, cfg *runConfig, env *serveEnv, keys []queryKey, out map[string]float64) error {
	keys = firstArtKeys(keys)
	srv, err := serve.New(env.arts[0].path, serve.Config{CacheSize: 1024})
	if err != nil {
		return err
	}
	defer srv.Close()
	if len(keys) > 2 {
		keys = keys[:2] // two misses warm two entries; the hits alternate between them
	}
	for _, k := range keys {
		if _, w := serveInProcess(srv, inProcessGet(env, k)); w.Code != http.StatusOK {
			return fmt.Errorf("in-process warm-up: status %d", w.Code)
		}
	}
	n := 5000
	if cfg.smoke {
		n = 200
	}
	lat := make([]float64, 0, n)
	id := cfg.rec.begin("serve.Server.ServeHTTP hit", -1, 0, 0)
	for i := 0; i < n && ctx.Err() == nil; i++ {
		k := keys[i%len(keys)]
		d, w := serveInProcess(srv, inProcessGet(env, k))
		if w.Code != http.StatusOK || env.orc.check(k, w.Body.Bytes()) != nil {
			return fmt.Errorf("in-process hit: wrong answer for scenario %d", k.q)
		}
		lat = append(lat, d)
	}
	cfg.rec.end(id)
	out["serve.handler_hit_us"] = median(lat) * 1e3
	return nil
}

// handlerMiss serves the first limit keys once each from a cache-less
// in-process server.
func handlerMiss(ctx context.Context, cfg *runConfig, env *serveEnv, keys []queryKey, limit int, out map[string]float64) error {
	keys = firstArtKeys(keys)
	srv, err := serve.New(env.arts[0].path, serve.Config{CacheSize: 0})
	if err != nil {
		return err
	}
	defer srv.Close()
	var lat []float64
	for i := 0; i < limit && i < len(keys) && ctx.Err() == nil; i++ {
		k := keys[i]
		id := cfg.rec.begin("serve.Server.ServeHTTP miss", -1, i, 0)
		d, w := serveInProcess(srv, inProcessGet(env, k))
		cfg.rec.end(id)
		if w.Code != http.StatusOK || env.orc.check(k, w.Body.Bytes()) != nil {
			return fmt.Errorf("in-process miss: wrong answer for scenario %d", k.q)
		}
		lat = append(lat, d)
	}
	out["serve.handler_miss_ms"] = median(lat)
	return nil
}

func handlerBatch(ctx context.Context, cfg *runConfig, env *serveEnv, keys []queryKey, out map[string]float64) error {
	reg, err := serve.NewRegistry(filepath.Dir(env.arts[0].path), serve.Config{CacheSize: 1024})
	if err != nil {
		return err
	}
	defer reg.Close()
	body, err := env.batchBody(keys)
	if err != nil {
		return err
	}
	reps := 500
	if cfg.smoke {
		reps = 20
	}
	out["serve.parse_batch_us"] = cfg.rec.timed("serve.ParseBatchRequest", -1, 0, func() {
		for i := 0; i < reps; i++ {
			if _, err = serve.ParseBatchRequest(body, serve.DefaultMaxBatch); err != nil {
				return
			}
		}
	}) * 1e3 / float64(reps)
	if err != nil {
		return err
	}
	post := func() *http.Request {
		return httptest.NewRequest(http.MethodPost, "/v1/alloc/batch", bytes.NewReader(body))
	}
	if _, w := serveInProcess(reg, post()); w.Code != http.StatusOK { // fills both caches
		return fmt.Errorf("in-process batch warm-up: status %d: %.200s", w.Code, w.Body.Bytes())
	}
	var lat []float64
	id := cfg.rec.begin("serve.Registry.ServeHTTP batch", -1, 0, 0)
	for i := 0; i < reps/2 && ctx.Err() == nil; i++ {
		d, w := serveInProcess(reg, post())
		if bad := env.judgeBatch(keys, response{status: w.Code, body: w.Body.Bytes()}); bad > 0 {
			return fmt.Errorf("in-process batch: %d wrong entries", bad)
		}
		lat = append(lat, d)
	}
	cfg.rec.end(id)
	out["serve.handler_batch_us"] = median(lat) * 1e3
	return nil
}
