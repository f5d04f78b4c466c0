package exps

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"

	"flexile"
	"flexile/internal/experiments"
	"flexile/internal/hyp"
	"flexile/internal/load"
	"flexile/internal/obs"
	"flexile/internal/serve"
)

// MissLatency is h-miss-latency, the count gate on the one-LP ladder: the
// online allocation behind a cache miss solves its max-min ladder as one LP
// re-solved in place (DESIGN.md §12), so a single-class call on the IBM
// fixture is 18 LP solves (the ladder and the two-LP level) at a pinned
// pivot count, with the serving contract untouched. Both counts are read
// from the collector of a server with the cache off, where every request is
// a fresh solve; every scenario's served body must be byte-identical between
// that server and a warm one. What a miss costs in wall-clock is timed by
// the bench/ harness (serve.handler_miss_ms, te.maxmin_ms); the pivot ratio
// against the per-level-rebuild reference is gated by internal/te's
// TestMaxMinMatchesColdOracle.
func MissLatency() hyp.Hypothesis {
	h := hyp.Hypothesis{
		Name:  "h-miss-latency",
		Claim: "the online allocation behind a cache miss on the IBM fixture is 18 LP solves and 288.5 pivots per call, with served bytes unchanged",
	}
	h.Run = func(ctx context.Context, p hyp.Params) (*hyp.Verdict, error) {
		scratch, cleanup, err := p.ScratchDir()
		if err != nil {
			return nil, err
		}
		if cleanup != nil {
			defer cleanup()
		}
		cfg := experiments.Config{Scale: experiments.Tiny, Seed: int64(p.Seed)}
		inst, err := cfg.SingleClass("IBM")
		if err != nil {
			return nil, err
		}
		path := filepath.Join(scratch, "h-miss.flxa")
		if err := writeArtifact(inst, path); err != nil {
			return nil, err
		}
		// Cache off: both fetches of a scenario are solves. Warm: the second
		// is a hit. All four bodies must be the same bytes. The LP solves
		// beneath a recompute report to the cache-off server's collector.
		col := obs.New()
		off, err := fetchAllTwice(ctx, path, serve.Config{CacheSize: 0, Workers: 1, Obs: col}, inst)
		if err != nil {
			return nil, err
		}
		warm, err := fetchAllTwice(ctx, path, serve.Config{CacheSize: len(inst.Scenarios), Workers: 1}, inst)
		if err != nil {
			return nil, err
		}
		identical := 0
		for q := range inst.Scenarios {
			ref := off[2*q]
			if bytes.Equal(ref, off[2*q+1]) && bytes.Equal(ref, warm[2*q]) && bytes.Equal(ref, warm[2*q+1]) {
				identical++
			}
		}
		m := col.Snapshot()
		calls := float64(len(off))
		p.Logf("h-miss-latency: %d cache-off solves: %d LP solves, %d pivots", len(off), m.LP.Solves, m.LP.Pivots)

		v := hyp.NewVerdict(h, p)
		v.Workloadf("topology", "IBM")
		v.Workloadf("scale", "tiny")
		v.Workloadf("scenarios", "%d", len(inst.Scenarios))
		v.Check("lp-solves-per-call", "==", float64(m.LP.Solves)/calls, 18)
		v.Check("lp-pivots-per-call", "==", float64(m.LP.Pivots)/calls, 288.5)
		v.Check("bodies-identical-cache-off-vs-warm", "==", float64(identical), float64(len(inst.Scenarios)))
		return v.Finalize(), nil
	}
	return h
}

// fetchAllTwice serves the artifact under cfg and GETs every scenario's
// allocation twice in a row, returning the bodies in request order.
func fetchAllTwice(ctx context.Context, artifact string, cfg serve.Config, inst *flexile.Instance) ([][]byte, error) {
	srv, err := serve.New(artifact, cfg)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := load.NewClient(ts.URL, 1)
	defer client.Close()
	var bodies [][]byte
	for q, scen := range inst.Scenarios {
		rq := load.Request{Queries: []load.Query{{Failed: scen.Failed}}}
		for n := 0; n < 2; n++ {
			outs, err := fireExact(ctx, client, rq)
			if err != nil {
				return nil, fmt.Errorf("scenario %d: %w", q, err)
			}
			bodies = append(bodies, outs[0].Body)
		}
	}
	return bodies, nil
}
