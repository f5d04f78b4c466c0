package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"flexile"
	"flexile/internal/experiments"
	"flexile/internal/obs"
	flexscheme "flexile/internal/scheme/flexile"
)

// instanceSpec names one generated TE instance. The experiments seed is
// fixed: it decides the instance's size class (a different gravity draw
// moves design time by 10×), so the harness seed drives the order in which
// the scenarios are presented instead, which leaves the problem — and its
// optimum — unchanged.
type instanceSpec struct {
	topo      string
	twoClass  bool
	scenarios int
	scale     float64
	// pinPenalty is the reference Σ_k w_k·PercLoss_k of the full-size
	// instance; a design may not be worse than it by more than 1e-6.
	pinPenalty float64
	// smokeTopo and smokeScenarios replace topo and scenarios in -smoke
	// runs, which check the plumbing on instances that solve in a fraction
	// of a second.
	smokeTopo      string
	smokeScenarios int
}

var designSpecs = map[string]instanceSpec{
	"design-lp":       {topo: "IBM", scenarios: 20, scale: 1.5, pinPenalty: 0, smokeTopo: "IBM", smokeScenarios: 4},
	"design-twoclass": {topo: "Sprint", twoClass: true, scenarios: 20, scale: 1.0, pinPenalty: 0.17365150193606413, smokeTopo: "Sprint", smokeScenarios: 6},
	"design-wide":     {topo: "ATT", scenarios: 4, scale: 1.3, pinPenalty: 0, smokeTopo: "IBM", smokeScenarios: 3},
}

func (s instanceSpec) build(smoke bool) (*flexile.Instance, error) {
	n, topo := s.scenarios, s.topo
	if smoke {
		n, topo = s.smokeScenarios, s.smokeTopo
	}
	cfg := experiments.Config{Scale: experiments.Small, MaxScenarios: n, Seed: 1}
	var inst *flexile.Instance
	var err error
	if s.twoClass {
		inst, err = cfg.TwoClass(topo)
	} else {
		inst, err = cfg.SingleClass(topo)
	}
	if err != nil {
		return nil, err
	}
	inst.ScaleDemands(s.scale)
	return inst, nil
}

// permuted returns a copy of inst whose scenarios are presented in a
// seeded order. Each timed operation gets its own permutation, so one run's
// median averages over presentations instead of inheriting one.
func permuted(inst *flexile.Instance, seed int64, op int) *flexile.Instance {
	c := *inst // Clone shares the scenario slice; the copy must own its order
	c.Scenarios = make([]flexile.Scenario, len(inst.Scenarios))
	if inst.ScenDemand != nil {
		c.ScenDemand = make([][]float64, len(inst.Scenarios)) // indexed by scenario: it moves with them
	}
	for i, q := range seededOrder(seed, int64(op), len(inst.Scenarios)) {
		c.Scenarios[i] = inst.Scenarios[q]
		if q < len(inst.ScenDemand) {
			c.ScenDemand[i] = inst.ScenDemand[q]
		}
	}
	return &c
}

func penalty(inst *flexile.Instance, res *flexile.DesignResult) float64 {
	p := 0.0
	for k, c := range inst.Classes {
		p += c.Weight * res.PercLoss[k]
	}
	return p
}

// verifyDesign is the oracle for one Design call: the solve was clean; every
// demanded flow's critical scenarios cover its class target β; the
// scenarios in which the flow loses no more than the class PercLoss also
// cover β (PercLoss really is a β-percentile bound for every flow — a
// critical scenario may lose more, the percentile skips the worst ones);
// and the objective is no worse than the pinned reference.
func verifyDesign(inst *flexile.Instance, res *flexile.DesignResult, pin float64) error {
	if res.Report.Degraded() {
		return fmt.Errorf("design degraded: %d retried, %d skipped, %d scenloss fallbacks, %d master failures",
			len(res.Report.Retried), len(res.Report.Skipped), len(res.Report.ScenLossFallback), len(res.Report.MasterFailures))
	}
	if len(res.PercLoss) != len(inst.Classes) || res.Critical == nil || len(res.SubLosses) != inst.NumFlows() {
		return fmt.Errorf("design result incomplete")
	}
	for k, c := range inst.Classes {
		for i := range inst.Pairs {
			f := inst.FlowID(k, i)
			if inst.FlowDemand(f) <= 0 {
				continue
			}
			critical, within := 0.0, 0.0
			for q, s := range inst.Scenarios {
				if res.Critical.Get(f, q) {
					critical += s.Prob
				}
				if res.SubLosses[f][q] <= res.PercLoss[k]+1e-6 {
					within += s.Prob
				}
			}
			if critical < c.Beta-1e-9 {
				return fmt.Errorf("flow %d: critical scenarios cover %.9f, below β=%.9f of class %q", f, critical, c.Beta, c.Name)
			}
			if within < c.Beta-1e-9 {
				return fmt.Errorf("flow %d: loss is within class %q PercLoss %.9f in scenarios covering only %.9f, below β=%.9f", f, c.Name, res.PercLoss[k], within, c.Beta)
			}
		}
	}
	if p := penalty(inst, res); p > pin+1e-6 || math.IsNaN(p) {
		return fmt.Errorf("design penalty %.9f is worse than the pinned reference %.9f", p, pin)
	}
	return nil
}

// designOp is one timed Design call.
type designOp struct {
	ms      float64
	cpu     time.Duration
	traced  bool
	penalty float64
	metrics obs.SolveMetrics
	err     error
}

// designSetups is how many times a design run sets up (builds the instance
// and runs the warm-up design); setup_s is their median.
const designSetups = 3

// runDesign measures wall-clock from an instance to a design through the
// public flexile.Design facade, sequentially, in this process (which the
// caller started for this workload alone, so peak RSS and GC state are the
// workload's own).
func runDesign(ctx context.Context, cfg *runConfig, def *workloadDef) (*runResult, error) {
	spec := designSpecs[def.name]
	// Set-up: build the instance, then one untimed design on the unpermuted
	// instance, which grows the heap, faults the pages in and must already
	// pass the oracle. The shrunken -smoke instance has no pinned reference,
	// so there the warm-up's own objective is the reference the timed
	// designs must match.
	var inst *flexile.Instance
	var pin float64
	var setups, walls []float64
	before := cfg.host.sample()
	for i := 0; i < designSetups && (i == 0 || !cfg.smoke); i++ {
		t0 := time.Now()
		var err error
		if inst, err = spec.build(cfg.smoke); err != nil {
			return nil, err
		}
		warm, err := flexile.Design(inst, flexile.DesignOptions{})
		if err != nil {
			return nil, fmt.Errorf("warm-up design: %w", err)
		}
		pin = spec.pinPenalty
		if cfg.smoke {
			pin = penalty(inst, warm)
		}
		if err := verifyDesign(inst, warm, pin); err != nil {
			return nil, fmt.Errorf("warm-up design: %w", err)
		}
		wall := time.Since(t0)
		after := cfg.host.sample()
		setups = append(setups, atReference(wall, before, after).Seconds())
		walls = append(walls, wall.Seconds())
		before = after
	}

	// In a traced run every other operation goes through OfflineCtx with a
	// collector and tracer on the context — the program's own telemetry
	// switched on — and the rest through the plain facade, so the two
	// medians of one run give the tracing overhead.
	var tracer *obs.Tracer
	var col *obs.Collector
	if cfg.trace {
		tracer = obs.NewTracer()
		col = obs.New()
		col.AttachTracer(tracer)
	}

	out := &runResult{}
	var ops []designOp
	windowStart := time.Now()
	for op := 0; ; op++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// Start another design only while, judging by the last one, at
		// least half of it still fits in the window.
		if op > 0 {
			last := time.Duration(ops[len(ops)-1].ms * float64(time.Millisecond))
			if time.Since(windowStart)+last/2 > cfg.window {
				break
			}
		}
		in := permuted(inst, cfg.seed, op)
		traced := cfg.trace && op%2 == 1
		id := cfg.rec.begin("flexile.Design", -1, op, 0)
		cpu0 := selfCPU()
		t0 := time.Now()
		var res *flexile.DesignResult
		var err error
		if traced {
			res, err = flexscheme.OfflineCtx(obs.With(ctx, col), in, flexile.DesignOptions{})
		} else {
			res, err = flexile.Design(in, flexile.DesignOptions{})
		}
		d := time.Since(t0)
		cpu := selfCPU() - cpu0
		cfg.rec.end(id)

		o := designOp{ms: ms(d), cpu: cpu, traced: traced, err: err}
		if err == nil {
			if injectFault == "worse-loss" && op == 0 {
				res.PercLoss[0] += 0.5
			}
			o.metrics = res.Report.Metrics
			o.penalty = penalty(in, res)
			o.err = verifyDesign(in, res, pin)
		}
		if o.err != nil {
			out.notef("op %d failed: %v", op, o.err)
		}
		ops = append(ops, o)
	}
	window := time.Since(windowStart)
	cfg.host.sample()

	in := opInput{
		setup:     time.Duration(median(setups) * float64(time.Second)),
		setupWall: time.Duration(median(walls) * float64(time.Second)),
		hostMs:    median(cfg.host.ms),
		window:    window, sent: len(ops),
	}
	for _, o := range ops {
		in.latMs = append(in.latMs, o.ms)
		if o.err != nil {
			out.failed++
			continue
		}
		in.work++
		in.cpu += o.cpu
		if o.ms <= def.limitMs {
			in.inLimit++
		}
	}
	var err error
	if in.rssMB, err = peakRSSMB(0); err != nil {
		return nil, err
	}
	out.attempted = len(ops)
	out.samples = len(ops)
	out.e2e, out.ops = e2eMetrics(in), opMetrics(in)
	if cfg.trace {
		out.solver = tracer
		if out.layers, err = designLayers(ctx, cfg, spec, inst, ops); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
	}
	return out, nil
}
