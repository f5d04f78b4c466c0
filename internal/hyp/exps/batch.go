package exps

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"

	"flexile/internal/experiments"
	"flexile/internal/hyp"
	"flexile/internal/load"
	"flexile/internal/serve"
)

// BatchAmortization is h-batch-amortization: one POST /v1/alloc/batch
// carrying 32 warm-cache queries answers every entry, each with the bytes a
// single GET for the same query returns. What batching amortizes — per
// round-trip connection handling, parse, header writes and syscalls — is
// wall-clock, which the bench/ harness times (serve.handler_batch_us
// against serve.handler_hit_us).
func BatchAmortization() hyp.Hypothesis {
	h := hyp.Hypothesis{
		Name:  "h-batch-amortization",
		Claim: "POST /v1/alloc/batch at batch=32 on a warm cache answers every entry with the bytes of the single GET for its query",
	}
	h.Run = func(ctx context.Context, p hyp.Params) (*hyp.Verdict, error) {
		cfg := experiments.Config{Scale: experiments.Tiny, Seed: int64(p.Seed)}
		inst, err := cfg.SingleClass("IBM")
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
		if err := writeArtifact(inst, path); err != nil {
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
		// Warm every scenario, capturing the single-GET oracle bodies.
		singleBodies := make([][]byte, batch)
		for i := range queries {
			outs, err := fireExact(ctx, client, load.Request{Queries: queries[i : i+1]})
			if err != nil {
				return nil, err
			}
			singleBodies[i] = outs[0].Body
		}
		entries, err := fireExact(ctx, client, load.Request{Queries: queries})
		if err != nil {
			return nil, err
		}

		// Every batch-envelope entry's body is byte-identical to the
		// single-GET answer for the same query.
		identical, answered := 0, 0
		for i, e := range entries {
			if e.Status == http.StatusOK {
				answered++
				if bytes.Equal(e.Body, singleBodies[i]) {
					identical++
				}
			}
		}

		v := hyp.NewVerdict(h, p)
		v.Workloadf("topology", "IBM")
		v.Workloadf("scale", "tiny")
		v.Workloadf("batch", "%d", batch)
		v.Workloadf("scenarios", "%d", len(inst.Scenarios))
		v.Check("batch-entries-answered", "==", float64(answered), batch)
		v.Check("batch-bodies-identical-to-single", "==", float64(identical), batch)
		return v.Finalize(), nil
	}
	return h
}
