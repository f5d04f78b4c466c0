package exps

import (
	"context"
	"math"

	"flexile"
	"flexile/internal/experiments"
	"flexile/internal/hyp"
)

// EmuFidelity is h-emu-fidelity: the paper's Fig. 9 claim on the offline
// path — replaying Flexile's routing through the emulation engines
// (integer select-group weights, packetization, drop-tail queues)
// reproduces the optimization model's losses within a couple of percent.
// Both engines are pure functions of the instance seed (the packet
// engine's per-packet tunnel hash is seeded), so every measured value here
// is deterministic and canonical: this hypothesis pins the exact gap, not
// just a pass bit.
func EmuFidelity() hyp.Hypothesis {
	h := hyp.Hypothesis{
		Name:  "h-emu-fidelity",
		Claim: "emulated losses track the optimization model within the Fig. 9 tolerance on the offline path",
	}
	h.Run = func(ctx context.Context, p hyp.Params) (*hyp.Verdict, error) {
		cfg := experiments.Config{Scale: experiments.Tiny, Seed: int64(p.Seed)}
		const topoName = "Sprint"
		inst, err := cfg.SingleClass(topoName)
		if err != nil {
			return nil, err
		}
		routing, err := flexile.NewFlexile().Route(inst)
		if err != nil {
			return nil, err
		}
		model := flexile.Evaluate(inst, routing)

		fluidLosses, err := flexile.EmulateFluid(inst, routing, flexile.EmulationOptions{})
		if err != nil {
			return nil, err
		}
		fluid := flexile.EvaluateLosses(inst, fluidLosses)
		pktLosses, err := flexile.EmulatePacket(inst, routing, flexile.EmulationOptions{Seed: int64(p.Seed)})
		if err != nil {
			return nil, err
		}
		pkt := flexile.EvaluateLosses(inst, pktLosses)

		fluidPerc := math.Abs(model.PercLoss[0] - fluid.PercLoss[0])
		pktPerc := math.Abs(model.PercLoss[0] - pkt.PercLoss[0])
		fluidMax := maxAbsGap(model.Losses, fluidLosses)
		corr := pcc(model.Losses, pktLosses)
		p.Logf("h-emu-fidelity: |ΔPercLoss| fluid %.4f packet %.4f, fluid max flow gap %.4f, packet PCC %.4f",
			fluidPerc, pktPerc, fluidMax, corr)

		v := hyp.NewVerdict(h, p)
		v.Workloadf("topology", topoName)
		v.Workloadf("scale", "tiny")
		v.Workloadf("scenarios", "%d", len(inst.Scenarios))
		v.Workloadf("flows", "%d", inst.NumFlows())
		v.Workloadf("engines", "fluid (deterministic) + packet (seeded)")
		v.Check("fluid-percloss-gap", "<=", fluidPerc, 0.02)
		v.Check("fluid-max-flow-loss-gap", "<=", fluidMax, 0.05)
		v.Check("packet-percloss-gap", "<=", pktPerc, 0.05)
		v.Check("packet-model-pcc", ">=", corr, 0.95)
		return v.Finalize(), nil
	}
	return h
}

// maxAbsGap is the largest per-flow per-scenario absolute loss difference.
func maxAbsGap(a, b [][]float64) float64 {
	worst := 0.0
	for f := range a {
		for q := range a[f] {
			if g := math.Abs(a[f][q] - b[f][q]); g > worst {
				worst = g
			}
		}
	}
	return worst
}

// pcc flattens two loss matrices and computes their Pearson correlation
// (the paper's Fig. 9c statistic).
func pcc(a, b [][]float64) float64 {
	var xs, ys []float64
	for f := range a {
		xs = append(xs, a[f]...)
		ys = append(ys, b[f]...)
	}
	n := float64(len(xs))
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var cov, vx, vy float64
	for i := range xs {
		cov += (xs[i] - mx) * (ys[i] - my)
		vx += (xs[i] - mx) * (xs[i] - mx)
		vy += (ys[i] - my) * (ys[i] - my)
	}
	if vx == 0 || vy == 0 {
		return 1
	}
	return cov / math.Sqrt(vx*vy)
}
