package exps

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"flexile"
	"flexile/internal/experiments"
	"flexile/internal/hyp"
	"flexile/internal/load"
	"flexile/internal/serve"
	"flexile/internal/te"
)

// ServeSoak is h-serve-soak, the headline experiment: an emulation-backed
// soak of the real flexile-serve binary. A seeded failure-scenario stream
// (load.BuildPlan — a pure function of the seed) is replayed against a
// live daemon over loopback HTTP, with a SIGHUP reload fired between the
// two halves of the stream. The served allocations are then cross-checked
// two ways:
//
//   - continuity: for every scenario answered in both halves, the
//     post-reload body is bit-identical to the pre-reload body — a reload
//     of an unchanged artifact must not perturb allocations;
//   - fidelity: the served per-tunnel allocations are reassembled into a
//     routing and replayed through the fluid emulation engine; the
//     emulator-delivered per-flow bandwidth must match the model's
//     delivered bandwidth within the paper's Fig. 9 tolerance.
//
// Every response body is a pure function of the artifact (itself a pure
// function of the seed), and the fluid engine is deterministic, so all of
// this hypothesis's checks — request counts, scenario coverage, body
// consistency, the emulation gap — are canonical. Only wall-clock
// measurements are volatile. Worker count shards the client pool but
// cannot change any canonical value, which is what the determinism test
// in soak_test.go pins.
func ServeSoak() hyp.Hypothesis {
	h := hyp.Hypothesis{
		Name:  "h-serve-soak",
		Claim: "a live flexile-serve soak's allocations survive a mid-soak SIGHUP bit-identically and match the model within Fig. 9 tolerance under fluid emulation",
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
		const topoName = "IBM"
		inst, err := cfg.SingleClass(topoName)
		if err != nil {
			return nil, err
		}
		artPath, err := soakArtifact(scratch, inst, p)
		if err != nil {
			return nil, err
		}
		bin, err := soakBinary(ctx, scratch, p)
		if err != nil {
			return nil, err
		}

		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		daemon := exec.Command(bin, "-artifact", artPath, "-listen", addr)
		daemon.Stderr = io.Discard
		if err := daemon.Start(); err != nil {
			return nil, fmt.Errorf("start flexile-serve: %w", err)
		}
		defer func() {
			daemon.Process.Signal(syscall.SIGTERM)
			daemon.Wait()
		}()
		base := "http://" + addr
		if err := waitReady(ctx, base+"/readyz"); err != nil {
			return nil, err
		}

		scens, err := load.FetchScenarios(ctx, base, "")
		if err != nil {
			return nil, err
		}

		const planDur = 1500 * time.Millisecond
		lcfg := load.Config{
			Seed:      p.Seed,
			QPS:       400,
			Duration:  planDur,
			Batch:     1,
			Scenarios: map[string][][]int{"": scens},
		}
		plan, err := load.BuildPlan(lcfg)
		if err != nil {
			return nil, err
		}
		half := len(plan.Requests) / 2

		start := time.Now()
		firstBodies, err := fireAll(ctx, base, plan.Requests[:half], lcfg, p.Workers)
		if err != nil {
			return nil, err
		}
		reloaded, err := reloadDaemon(ctx, daemon, base)
		if err != nil {
			return nil, err
		}
		secondBodies, err := fireAll(ctx, base, plan.Requests[half:], lcfg, p.Workers)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)

		// Index every body by its served scenario, per half.
		firstBy, err := byScenario(firstBodies)
		if err != nil {
			return nil, err
		}
		secondBy, err := byScenario(secondBodies)
		if err != nil {
			return nil, err
		}
		mismatched := 0 // repeated answers for one scenario within a half differ
		for _, by := range []map[int][][]byte{firstBy, secondBy} {
			for _, bodies := range by {
				for _, b := range bodies[1:] {
					if string(b) != string(bodies[0]) {
						mismatched++
					}
				}
			}
		}
		seenBoth, consistent := 0, 0
		covered := make(map[int]bool)
		for q := range firstBy {
			covered[q] = true
		}
		for q := range secondBy {
			covered[q] = true
			if pre, ok := firstBy[q]; ok {
				seenBoth++
				if string(pre[0]) == string(secondBy[q][0]) {
					consistent++
				}
			}
		}

		// Reassemble the served allocations into a routing and replay it
		// through the deterministic fluid engine: the model-vs-emulation
		// loss gap is the Fig. 9 statistic, here computed on exactly what
		// the daemon served rather than on an in-process solve.
		r := te.NewRouting(inst)
		for q, bodies := range firstBy {
			var resp serve.AllocResponse
			if err := json.Unmarshal(bodies[0], &resp); err != nil {
				return nil, fmt.Errorf("decode scenario %d body: %w", q, err)
			}
			r.X[q] = resp.X
		}
		model := flexile.Evaluate(inst, r)
		emuLosses, err := flexile.EmulateFluid(inst, r, flexile.EmulationOptions{})
		if err != nil {
			return nil, err
		}
		gap := maxAbsGap(model.Losses, emuLosses)
		p.Logf("h-serve-soak: %d requests in %v, %d/%d scenarios covered, reload=%v, emu gap %.4f",
			len(plan.Requests), wall.Round(time.Millisecond), len(covered), len(inst.Scenarios), reloaded, gap)

		v := hyp.NewVerdict(h, p)
		v.Workloadf("topology", topoName)
		v.Workloadf("scale", "tiny")
		v.Workloadf("daemon", "real flexile-serve binary, loopback HTTP, SIGHUP at stream midpoint")
		v.Workloadf("stream", "load.BuildPlan seed=%d qps=400 duration=%s batch=1", p.Seed, planDur)
		v.Workloadf("scenarios", "%d", len(inst.Scenarios))
		v.Check("requests-planned", ">=", float64(len(plan.Requests)), 200)
		v.Check("responses-ok", "==", float64(len(firstBodies)+len(secondBodies)), float64(len(plan.Requests)))
		v.Check("scenarios-covered", "==", float64(len(covered)), float64(len(inst.Scenarios)))
		v.Check("reload-completed", "==", b2f(reloaded), 1)
		v.Check("bodies-mismatched-within-half", "==", float64(mismatched), 0)
		v.Check("scenarios-seen-in-both-halves", "==", float64(seenBoth), float64(len(inst.Scenarios)))
		v.Check("scenarios-consistent-across-reload", "==", float64(consistent), float64(seenBoth))
		v.Check("soak-emu-max-loss-gap", "<=", gap, 0.03)
		v.Measure("wall-s", wall.Seconds())
		v.Measure("requests", float64(len(plan.Requests)))
		v.Measure("soak-emu-max-loss-gap", gap)
		return v.Finalize(), nil
	}
	return h
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// soakArtifact writes the serving artifact for inst, cached per seed so
// repeat runs in a shared scratch skip the offline solve.
func soakArtifact(scratch string, inst *flexile.Instance, p hyp.Params) (string, error) {
	path := filepath.Join(scratch, fmt.Sprintf("h-soak-%d.flxa", p.Seed))
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	return path, writeArtifact(inst, path)
}

// soakBinary builds the real flexile-serve once per scratch directory.
func soakBinary(ctx context.Context, scratch string, p hyp.Params) (string, error) {
	bin := filepath.Join(scratch, "flexile-serve")
	if _, err := os.Stat(bin); err == nil {
		return bin, nil
	}
	p.Logf("h-serve-soak: building flexile-serve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "flexile/cmd/flexile-serve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build flexile-serve: %w\n%s", err, out)
	}
	return bin, nil
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

func waitReady(ctx context.Context, url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := http.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("server never became ready at %s", url)
}

// loadedAt reads the daemon's /v1/info artifact timestamp — it changes
// exactly when a reload swaps state in, which is how reloadDaemon proves
// the SIGHUP completed rather than merely being delivered.
func loadedAt(ctx context.Context, base string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/info", nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var info struct {
		LoadedAt string `json:"loaded_at"`
	}
	err = json.NewDecoder(resp.Body).Decode(&info)
	return info.LoadedAt, err
}

// reloadDaemon sends SIGHUP and waits until /v1/info reports a new
// loaded_at and /readyz answers 200 again.
func reloadDaemon(ctx context.Context, daemon *exec.Cmd, base string) (bool, error) {
	before, err := loadedAt(ctx, base)
	if err != nil {
		return false, err
	}
	if err := daemon.Process.Signal(syscall.SIGHUP); err != nil {
		return false, err
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		after, err := loadedAt(ctx, base)
		if err == nil && after != "" && after != before {
			return true, waitReady(ctx, base+"/readyz")
		}
		time.Sleep(25 * time.Millisecond)
	}
	return false, nil
}

// fireAll drives one half of the plan closed-loop with a fixed pool of
// clients — client w takes every workers-th request from w — storing each
// body at its plan index, so the observed trace is independent of worker
// count and interleaving. Any answer but a 200 is an error: the
// soak plans no overload, so the server has no excuse.
func fireAll(ctx context.Context, base string, reqs []load.Request, lcfg load.Config, workers int) ([][]byte, error) {
	workers = max(workers, 1)
	bodies := make([][]byte, len(reqs))
	ctx, stop := context.WithCancel(ctx)
	defer stop()
	var failed error
	fail := func(err error) {
		if failed == nil {
			failed = err
			stop()
		}
	}
	load.Storm{
		Clients:  workers,
		Deadline: lcfg.Deadline,
		Next: func(_ *load.Rand, w, i int) (load.Request, bool) {
			if k := i*workers + w; k < len(reqs) {
				return reqs[k], true
			}
			return load.Request{}, false
		},
	}.Run(ctx, base, func(sm load.Sample) {
		k := sm.Seq*workers + sm.Client
		if sm.Err != nil {
			fail(fmt.Errorf("request %d (id %s): %w", k, sm.Request.ID, sm.Err))
			return
		}
		// The planned request id finds the server-side trace
		// (/debug/requests) and access-log record of a bad sample.
		out := sm.Outcomes[0]
		if class, err := load.Contract(nil, sm.Request, 0, out); class != load.Exact {
			fail(fmt.Errorf("request %d (id %s, server id %s): %v answer, shed=%q: %v", k, sm.Request.ID, out.RequestID, class, out.Shed, err))
		}
		bodies[k] = out.Body
	})
	if failed == nil {
		failed = ctx.Err()
	}
	return bodies, failed
}

// byScenario decodes each body's served scenario index and groups the raw
// bodies by it, preserving plan order within a scenario.
func byScenario(bodies [][]byte) (map[int][][]byte, error) {
	out := make(map[int][][]byte)
	for i, b := range bodies {
		var resp struct {
			Scenario int `json:"scenario"`
		}
		if err := json.Unmarshal(b, &resp); err != nil {
			return nil, fmt.Errorf("decode body %d: %w", i, err)
		}
		out[resp.Scenario] = append(out[resp.Scenario], b)
	}
	return out, nil
}
