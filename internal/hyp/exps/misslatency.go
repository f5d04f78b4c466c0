package exps

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"flexile"
	"flexile/internal/experiments"
	"flexile/internal/hyp"
	"flexile/internal/load"
	"flexile/internal/serve"
)

// MissLatency is h-miss-latency, the gate on the one-LP ladder: the online
// allocation behind a cache miss solves its max-min ladder as one LP
// re-solved in place (DESIGN.md §12) instead of 18 LPs built and solved from
// the slack basis, and is at least 4× faster for it on the IBM fixture, with
// the serving contract untouched.
//
// The comparison is against te's per-level-rebuild reference, which is kept
// out of every production path by living only in internal/te's test files.
// This experiment therefore measures both sides by running that package's
// TestMissLatencyReport through `go test` (as h-serve-soak builds the daemon
// through `go build`) and reading its report back. Deterministic checks: the
// pivots per call are at most a fifth of the reference's, a single-class
// call is still 18 LP solves (the ladder and the two-LP level are
// unchanged), and every scenario's served body is byte-identical between a
// server with the cache off — every request a fresh solve — and a warm one.
// The wall-clock ratio is volatile.
func MissLatency() hyp.Hypothesis {
	h := hyp.Hypothesis{
		Name:  "h-miss-latency",
		Claim: "the online allocation behind a cache miss is >=4x faster than the per-level-rebuild reference on the IBM fixture, at <=1/5 of its pivots and with served bytes unchanged",
	}
	h.Run = func(ctx context.Context, p hyp.Params) (*hyp.Verdict, error) {
		scratch, cleanup, err := p.ScratchDir()
		if err != nil {
			return nil, err
		}
		if cleanup != nil {
			defer cleanup()
		}
		const passes = 3
		rep, err := missReport(ctx, p, filepath.Join(scratch, "h-miss-report.json"), passes)
		if err != nil {
			return nil, err
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
		// is a hit. All four bodies must be the same bytes.
		off, err := fetchAllTwice(ctx, path, serve.Config{CacheSize: 0, Workers: 1}, inst)
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

		speedup := rep.Cold.BestS / rep.Hot.BestS
		pivotsX := float64(rep.Cold.Pivots) / float64(rep.Hot.Pivots)
		p.Logf("h-miss-latency: %d scenarios: reference %.3fs / %d pivots, production %.3fs / %d pivots: %.2fx wall-clock, %.2fx pivots",
			rep.Scenarios, rep.Cold.BestS, rep.Cold.Pivots, rep.Hot.BestS, rep.Hot.Pivots, speedup, pivotsX)

		// 4× is the claim; the check gates on a conservative floor (see
		// h-batch-amortization for the rationale).
		v := hyp.NewVerdict(h, p)
		v.Workloadf("topology", "IBM")
		v.Workloadf("scale", "tiny")
		v.Workloadf("scenarios", "%d", rep.Scenarios)
		v.Workloadf("runs", "min-of-%d passes over every scenario per side, sides alternating", passes)
		v.Workloadf("reference", "internal/te maxMinCold via go test -run TestMissLatencyReport")
		v.Check("lp-solves-per-call", "==", float64(rep.Hot.LPSolves)/float64(rep.Scenarios), 18)
		v.Check("reference-over-production-pivots-x", ">=", pivotsX, 5)
		v.Check("bodies-identical-cache-off-vs-warm", "==", float64(identical), float64(len(inst.Scenarios)))
		v.CheckVolatile("miss-speedup-x", ">=", speedup, 3)
		v.Measure("reference-s", rep.Cold.BestS)
		v.Measure("production-s", rep.Hot.BestS)
		v.Measure("miss-speedup-x", speedup)
		v.Measure("production-ms-per-call", 1e3*rep.Hot.BestS/float64(rep.Scenarios))
		return v.Finalize(), nil
	}
	return h
}

// missSide and missLatencyReport mirror the JSON internal/te's
// TestMissLatencyReport writes.
type missSide struct {
	LPSolves int64   `json:"lp_solves"`
	Pivots   int64   `json:"pivots"`
	BestS    float64 `json:"best_s"`
}

type missLatencyReport struct {
	Scenarios int      `json:"scenarios"`
	Passes    int      `json:"passes"`
	Hot       missSide `json:"hot"`
	Cold      missSide `json:"cold"`
}

// missReport runs internal/te's TestMissLatencyReport and parses what it
// wrote to path.
func missReport(ctx context.Context, p hyp.Params, path string, passes int) (*missLatencyReport, error) {
	cmd := exec.CommandContext(ctx, "go", "test", "-count=1", "-run", "^TestMissLatencyReport$", "flexile/internal/te")
	cmd.Env = append(os.Environ(),
		"FLEXILE_MISS_REPORT="+path,
		"FLEXILE_MISS_SEED="+strconv.FormatUint(p.Seed, 10),
		"FLEXILE_MISS_PASSES="+strconv.Itoa(passes),
	)
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go test flexile/internal/te: %w\n%s", err, out)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("miss-latency report: %w", err)
	}
	var rep missLatencyReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("miss-latency report: %w", err)
	}
	if rep.Scenarios == 0 || rep.Hot.Pivots == 0 || rep.Hot.BestS == 0 || rep.Cold.BestS == 0 {
		return nil, fmt.Errorf("miss-latency report measured nothing: %s", raw)
	}
	return &rep, nil
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
			outs, _, err := fireExact(ctx, client, rq)
			if err != nil {
				return nil, fmt.Errorf("scenario %d: %w", q, err)
			}
			bodies = append(bodies, outs[0].Body)
		}
	}
	return bodies, nil
}
