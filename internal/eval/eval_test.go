package eval

import (
	"math"
	"testing"
	"testing/quick"

	"flexile/internal/failure"
	"flexile/internal/te"
	"flexile/internal/topo"
	"flexile/internal/tunnels"
)

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }

func TestFlowLossBasic(t *testing.T) {
	// Paper §5 example: losses 0%, 5%, 10% with probs 0.9, 0.09, 0.01.
	losses := []float64{0, 0.05, 0.10}
	probs := []float64{0.9, 0.09, 0.01}
	if got := FlowLoss(losses, probs, 0.90); !approx(got, 0) {
		t.Fatalf("VaR90 = %v, want 0", got)
	}
	if got := FlowLoss(losses, probs, 0.95); !approx(got, 0.05) {
		t.Fatalf("VaR95 = %v, want 0.05", got)
	}
	if got := FlowLoss(losses, probs, 0.999); !approx(got, 0.10) {
		t.Fatalf("VaR99.9 = %v, want 0.10", got)
	}
}

func TestFlowLossResidualMass(t *testing.T) {
	// Scenarios only cover 0.95; asking for 0.99 must return 1.
	losses := []float64{0, 0.2}
	probs := []float64{0.90, 0.05}
	if got := FlowLoss(losses, probs, 0.99); got != 1 {
		t.Fatalf("VaR beyond coverage = %v, want 1", got)
	}
	if got := FlowLoss(losses, probs, 0.95); !approx(got, 0.2) {
		t.Fatalf("VaR at coverage edge = %v, want 0.2", got)
	}
}

func TestFlowLossUnsortedInput(t *testing.T) {
	losses := []float64{0.5, 0.0, 0.25}
	probs := []float64{0.01, 0.9, 0.09}
	if got := FlowLoss(losses, probs, 0.95); !approx(got, 0.25) {
		t.Fatalf("VaR95 = %v, want 0.25", got)
	}
}

// Property: FlowLoss is monotone in beta and bounded by [min loss, 1].
func TestFlowLossMonotone(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		r := seed
		next := func() float64 {
			r = (r*6364136223846793005 + 1442695040888963407) & 0x7fffffffffffffff
			return float64(r%1000) / 1000
		}
		n := int(seed%7) + 2
		losses := make([]float64, n)
		probs := make([]float64, n)
		tot := 0.0
		for i := range losses {
			losses[i] = next()
			probs[i] = next() + 1e-3
			tot += probs[i]
		}
		for i := range probs {
			probs[i] /= tot * 1.02 // leave a little residual mass
		}
		last := -1.0
		for _, b := range []float64{0.1, 0.5, 0.9, 0.97, 0.999} {
			v := FlowLoss(losses, probs, b)
			if v < last-1e-12 {
				return false
			}
			if v < 0 || v > 1 {
				return false
			}
			last = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func triangleInst() *te.Instance {
	tp := topo.Triangle()
	inst := te.NewInstance(tp, []te.Class{
		{Name: "single", Beta: 0.99, Weight: 1, Tunnels: tunnels.SingleClass(3)},
	})
	inst.Demand[0][0] = 1
	inst.Demand[0][1] = 1
	inst.LinkProbs = []float64{0.01, 0.01, 0.01}
	inst.Scenarios = failure.Enumerate(inst.LinkProbs, 0)
	return inst
}

func TestPercLossDirectRouting(t *testing.T) {
	// Route each flow on its direct link in every scenario where the link
	// is alive (Flexile's Fig. 1 solution): PercLoss at 99% must be 0.
	inst := triangleInst()
	r := te.NewRouting(inst)
	for q, s := range inst.Scenarios {
		for i := 0; i < 2; i++ { // pairs (A,B) and (A,C)
			for ti, p := range inst.Tunnels[0][i] {
				if p.Len() == 1 && p.Alive(s.Alive()) {
					r.X[q][0][i][ti] = 1
				}
			}
		}
	}
	losses := r.LossMatrix(inst)
	if got := PercLoss(inst, losses, 0); !approx(got, 0) {
		t.Fatalf("PercLoss = %v, want 0 (Fig. 1)", got)
	}
	if p := Penalty(inst, losses); !approx(p, 0) {
		t.Fatalf("Penalty = %v", p)
	}
}

func TestPercLossHalfRouting(t *testing.T) {
	// ScenBest-style 0.5/0.5 split under single failures gives 99%ile loss
	// of 0.5 (paper Fig. 2): emulate by delivering 0.5 to each flow in the
	// two single-failure scenarios of its links, 1.0 when all alive.
	inst := triangleInst()
	r := te.NewRouting(inst)
	for q, s := range inst.Scenarios {
		for i := 0; i < 2; i++ {
			direct, indirect := -1, -1
			for ti, p := range inst.Tunnels[0][i] {
				if p.Len() == 1 {
					direct = ti
				} else {
					indirect = ti
				}
			}
			switch {
			case len(s.Failed) == 0:
				r.X[q][0][i][direct] = 1
			case len(s.Failed) == 1 && (s.Failed[0] == 0 || s.Failed[0] == 1):
				// One of the A-side links failed: both flows squeeze
				// through the surviving one at 0.5 each.
				if inst.Tunnels[0][i][direct].Alive(s.Alive()) {
					r.X[q][0][i][direct] = 0.5
				} else if indirect >= 0 && inst.Tunnels[0][i][indirect].Alive(s.Alive()) {
					r.X[q][0][i][indirect] = 0.5
				}
			case len(s.Failed) == 1:
				// B-C failed: directs unaffected.
				r.X[q][0][i][direct] = 1
			}
		}
	}
	losses := r.LossMatrix(inst)
	got := PercLoss(inst, losses, 0)
	if !approx(got, 0.5) {
		t.Fatalf("PercLoss = %v, want 0.5 (paper Fig. 2)", got)
	}
}

func TestScenLoss(t *testing.T) {
	inst := triangleInst()
	losses := make([][]float64, inst.NumFlows())
	for f := range losses {
		losses[f] = make([]float64, len(inst.Scenarios))
	}
	losses[0][0] = 0.3
	losses[1][0] = 0.7
	flows := []int{0, 1}
	if got := ScenLoss(inst, losses, 0, flows, false); !approx(got, 0.7) {
		t.Fatalf("ScenLoss = %v", got)
	}
	// connectedOnly: find a scenario where flow 0 (pair A-B) is
	// disconnected — both e0 and e2 failed.
	qd := -1
	for q, s := range inst.Scenarios {
		if s.IsFailed(0) && s.IsFailed(2) && !s.IsFailed(1) {
			qd = q
		}
	}
	losses[0][qd] = 1
	losses[1][qd] = 0.1
	if got := ScenLoss(inst, losses, qd, flows, true); !approx(got, 0.1) {
		t.Fatalf("connected-only ScenLoss = %v, want 0.1", got)
	}
	if got := ScenLoss(inst, losses, qd, flows, false); !approx(got, 1) {
		t.Fatalf("all-flows ScenLoss = %v, want 1", got)
	}
}

func TestCDFAndQuantile(t *testing.T) {
	values := []float64{0.5, 0.1, 0.1, 0.9}
	cdf := CDF(values, nil)
	// Distinct values collapse: 0.1 (cum .5), 0.5 (cum .75), 0.9 (cum 1).
	if len(cdf) != 3 {
		t.Fatalf("cdf points = %d, want 3", len(cdf))
	}
	if !approx(cdf[0].Cum, 0.5) || !approx(cdf[2].Cum, 1) {
		t.Fatalf("cdf = %+v", cdf)
	}
	if got := Quantile(cdf, 0.5); !approx(got, 0.1) {
		t.Fatalf("median = %v", got)
	}
	if got := Quantile(cdf, 0.76); !approx(got, 0.9) {
		t.Fatalf("q76 = %v", got)
	}
	// Weighted CDF.
	wcdf := CDF([]float64{0, 1}, []float64{0.99, 0.01})
	if got := Quantile(wcdf, 0.999); !approx(got, 1) {
		t.Fatalf("weighted q999 = %v", got)
	}
}

func TestMedianAndReduction(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); !approx(got, 2) {
		t.Fatalf("median = %v", got)
	}
	if got := ReductionPercent(0.5, 0.25); !approx(got, 50) {
		t.Fatalf("reduction = %v", got)
	}
	if got := ReductionPercent(0, 0.1); got != 0 {
		t.Fatalf("zero-base reduction = %v", got)
	}
	// Both losses are solver noise: no reduction, where 100·(b−n)/b read
	// −73 %.
	if got := ReductionPercent(1e-16, 1.73e-16); got != 0 {
		t.Fatalf("reduction over a 1e-16 base = %v, want 0", got)
	}
	// A real base against a noise-level new loss is a full reduction.
	if got := ReductionPercent(0.2, 3e-12); got != 100 {
		t.Fatalf("reduction to a 3e-12 loss = %v, want 100", got)
	}
}

func TestFlowLossAllSkipsZeroDemand(t *testing.T) {
	inst := triangleInst()
	r := te.NewRouting(inst)
	losses := r.LossMatrix(inst)
	fla := FlowLossAll(inst, losses)
	// Pair B-C has zero demand → FlowLoss 0 by convention.
	if fla[inst.FlowID(0, 2)] != 0 {
		t.Fatalf("zero-demand flow loss = %v", fla[inst.FlowID(0, 2)])
	}
	// Demanded flows with an all-zero routing lose everything.
	if fla[inst.FlowID(0, 0)] != 1 {
		t.Fatalf("unrouted flow loss = %v", fla[inst.FlowID(0, 0)])
	}
}
