package exps

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"flexile"
	"flexile/internal/experiments"
	"flexile/internal/hyp"
	"flexile/internal/load"
	"flexile/internal/serve"
)

// BatchAmortization is h-batch-amortization: the PR 8 claim that one POST
// /v1/alloc/batch round-trip carrying 32 warm-cache queries costs at least
// 3× less than 32 single GET round-trips at equal query count, over real
// loopback HTTP (the quantity batching amortizes is per-round-trip
// overhead: connection handling, parse, header writes, syscalls). The
// measured ratio on the reference container is ~5-6×. Wall-clock, so the
// ratio is volatile; the envelope-vs-single bit-identity of the bodies is
// deterministic and canonical.
func BatchAmortization() hyp.Hypothesis {
	h := hyp.Hypothesis{
		Name:  "h-batch-amortization",
		Claim: "POST /v1/alloc/batch at batch=32 amortizes >=3x over 32 single GETs on a warm cache",
	}
	h.Run = func(ctx context.Context, p hyp.Params) (*hyp.Verdict, error) {
		cfg := experiments.Config{Scale: experiments.Tiny, Seed: int64(p.Seed)}
		inst, err := cfg.SingleClass("IBM")
		if err != nil {
			return nil, err
		}
		design, err := flexile.Design(inst, flexile.DesignOptions{})
		if err != nil {
			return nil, err
		}
		blob, err := flexile.ExportArtifact(inst, design, flexile.DesignOptions{})
		if err != nil {
			return nil, err
		}
		scratch, cleanup, err := p.ScratchDir()
		if err != nil {
			return nil, err
		}
		if cleanup != nil {
			defer cleanup()
		}
		path := filepath.Join(scratch, "h-batch.flxa")
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			return nil, err
		}
		srv, err := serve.New(path, serve.Config{CacheSize: len(inst.Scenarios), Workers: 2})
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()
		client := load.NewClient(ts.URL, 1)
		defer client.Close()

		const batch = 32
		queries := make([]load.Query, batch)
		for i := range queries {
			queries[i] = load.Query{Failed: inst.Scenarios[i%len(inst.Scenarios)].Failed}
		}
		get := func(i int) ([]load.Outcome, time.Duration, error) {
			return fireExact(ctx, client, load.Request{Queries: queries[i%batch : i%batch+1]})
		}
		postBatch := func() ([]load.Outcome, time.Duration, error) {
			return fireExact(ctx, client, load.Request{Queries: queries})
		}

		// Warm every scenario, capturing the single-GET oracle bodies.
		singleBodies := make([][]byte, batch)
		for i := 0; i < batch; i++ {
			outs, _, err := get(i)
			if err != nil {
				return nil, err
			}
			singleBodies[i] = outs[0].Body
		}
		entries, _, err := postBatch()
		if err != nil {
			return nil, err
		}

		// Deterministic check: every batch-envelope entry's body is
		// byte-identical to the single-GET answer for the same query.
		identical, answered := 0, 0
		for i, e := range entries {
			if e.Status == http.StatusOK {
				answered++
				if bytes.Equal(e.Body, singleBodies[i]) {
					identical++
				}
			}
		}

		// Timed passes. Each side is scored by its fastest round-trip —
		// the min is the scheduler-noise-free cost — but the single side still averages its min over the
		// batch width so one lucky GET can't dominate:
		// a "pass" on the single side is 32 consecutive GETs.
		passes := 8
		if p.Tier == hyp.TierSoak {
			passes = 64
		}
		singleBest := time.Duration(1<<63 - 1)
		for pass := 0; pass < passes; pass++ {
			var total time.Duration
			for i := 0; i < batch; i++ {
				_, lat, err := get(pass*batch + i)
				if err != nil {
					return nil, err
				}
				total += lat
			}
			if total < singleBest {
				singleBest = total
			}
		}
		batchBest := time.Duration(1<<63 - 1)
		for pass := 0; pass < passes; pass++ {
			_, lat, err := postBatch()
			if err != nil {
				return nil, err
			}
			if lat < batchBest {
				batchBest = lat
			}
		}
		amort := float64(singleBest) / float64(batchBest)
		p.Logf("h-batch-amortization: %d singles %v, batch %v: %.2fx", batch, singleBest, batchBest, amort)

		v := hyp.NewVerdict(h, p)
		v.Workloadf("topology", "IBM")
		v.Workloadf("scale", "tiny")
		v.Workloadf("batch", "%d", batch)
		v.Workloadf("scenarios", "%d", len(inst.Scenarios))
		v.Workloadf("passes", "min-of-%d per side, warm cache, loopback HTTP", passes)
		v.Check("batch-entries-answered", "==", float64(answered), batch)
		v.Check("batch-bodies-identical-to-single", "==", float64(identical), batch)
		// 3× is the claim; the quick tier — run on every CI push, where
		// scheduler noise routinely costs tens of percent — gates on a
		// conservative floor, and the soak tier enforces the full claim.
		floor := 2.0
		if p.Tier == hyp.TierSoak {
			floor = 3.0
		}
		v.CheckVolatile("amortization-x", ">=", amort, floor)
		v.Measure("single-best-ns", float64(singleBest))
		v.Measure("batch-best-ns", float64(batchBest))
		v.Measure("amortization-x", amort)
		return v.Finalize(), nil
	}
	return h
}
