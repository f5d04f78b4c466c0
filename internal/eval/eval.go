// Package eval implements the paper's post-analysis metrics: FlowLoss (the
// β-percentile of a flow's loss across failure scenarios, Definition 4.1),
// PercLoss (the maximum FlowLoss across a class's flows, Definition 4.2),
// ScenLoss (the worst flow's loss within one scenario, Definition 2.1), and
// probability-weighted CDFs for the figures.
//
// Every scheme is evaluated the same way (§6): compute its routing and the
// loss of each flow in each scenario, then read the percentiles off the
// loss matrix.
package eval

import (
	"math"
	"sort"

	"flexile/internal/failure"
	"flexile/internal/lp"
	"flexile/internal/te"
)

// FlowLoss returns the β-percentile of a flow's loss: the smallest v such
// that scenarios with loss ≤ v carry probability at least β. Probability
// mass not covered by the enumerated scenarios is counted at loss 1
// (conservative, matching Teavar's post-analysis).
func FlowLoss(losses, probs []float64, beta float64) float64 {
	type lw struct{ l, p float64 }
	items := make([]lw, len(losses))
	for i := range losses {
		items[i] = lw{losses[i], probs[i]}
	}
	sort.Slice(items, func(a, b int) bool { return items[a].l < items[b].l })
	cum := 0.0
	for _, it := range items {
		cum += it.p
		if cum >= beta-failure.MassFloor {
			return it.l
		}
	}
	// The enumerated mass alone cannot reach β; the residual counts as
	// total loss.
	return 1
}

// ScenLoss returns max_f loss[f][q] over the given flows (Definition 2.1).
// connectedOnly skips flows disconnected in the scenario, the accounting
// §6.3 uses ("worst performing connected flow").
func ScenLoss(inst *te.Instance, losses [][]float64, q int, flows []int, connectedOnly bool) float64 {
	worst := 0.0
	for _, f := range flows {
		k, i := inst.FlowOf(f)
		if inst.Demand[k][i] <= 0 {
			continue
		}
		if connectedOnly && !inst.FlowConnected(k, i, inst.Scenarios[q]) {
			continue
		}
		if l := losses[f][q]; l > worst {
			worst = l
		}
	}
	return worst
}

// ClassFlows lists the flow ids of class k with positive demand.
func ClassFlows(inst *te.Instance, k int) []int {
	var out []int
	for i := range inst.Pairs {
		if inst.Demand[k][i] > 0 {
			out = append(out, inst.FlowID(k, i))
		}
	}
	return out
}

// PercLoss returns max over the class's flows of FlowLoss(f, β_k)
// (Definition 4.2) for class k, given the full loss matrix.
func PercLoss(inst *te.Instance, losses [][]float64, k int) float64 {
	probs := scenarioProbs(inst)
	worst := 0.0
	for _, f := range ClassFlows(inst, k) {
		if fl := FlowLoss(losses[f], probs, inst.Classes[k].Beta); fl > worst {
			worst = fl
		}
	}
	return worst
}

// PercLossAll returns PercLoss for every class.
func PercLossAll(inst *te.Instance, losses [][]float64) []float64 {
	out := make([]float64, len(inst.Classes))
	for k := range inst.Classes {
		out[k] = PercLoss(inst, losses, k)
	}
	return out
}

// Penalty returns Σ_k w_k·PercLoss_k, the offline objective.
func Penalty(inst *te.Instance, losses [][]float64) float64 {
	tot := 0.0
	for k, pl := range PercLossAll(inst, losses) {
		tot += inst.Classes[k].Weight * pl
	}
	return tot
}

func scenarioProbs(inst *te.Instance) []float64 {
	probs := make([]float64, len(inst.Scenarios))
	for q, s := range inst.Scenarios {
		probs[q] = s.Prob
	}
	return probs
}

// FlowLossAll returns FlowLoss(f, β_class(f)) for every flow.
func FlowLossAll(inst *te.Instance, losses [][]float64) []float64 {
	probs := scenarioProbs(inst)
	out := make([]float64, inst.NumFlows())
	for k := range inst.Classes {
		for i := range inst.Pairs {
			f := inst.FlowID(k, i)
			if inst.Demand[k][i] <= 0 {
				continue
			}
			out[f] = FlowLoss(losses[f], probs, inst.Classes[k].Beta)
		}
	}
	return out
}

// CDFPoint is one step of a weighted empirical CDF.
type CDFPoint struct {
	Value float64
	// Cum is the cumulative weight of observations with Value ≤ this one.
	Cum float64
}

// CDF builds the weighted empirical CDF of values. weights == nil means
// equal weights summing to 1.
func CDF(values, weights []float64) []CDFPoint {
	n := len(values)
	if n == 0 {
		return nil
	}
	w := weights
	if w == nil {
		w = make([]float64, n)
		for i := range w {
			w[i] = 1 / float64(n)
		}
	}
	type vw struct{ v, w float64 }
	items := make([]vw, n)
	for i := range values {
		items[i] = vw{values[i], w[i]}
	}
	sort.Slice(items, func(a, b int) bool { return items[a].v < items[b].v })
	out := make([]CDFPoint, 0, n)
	cum := 0.0
	for _, it := range items {
		cum += it.w
		if len(out) > 0 && out[len(out)-1].Value == it.v {
			out[len(out)-1].Cum = cum
			continue
		}
		out = append(out, CDFPoint{it.v, cum})
	}
	return out
}

// Quantile reads the q-quantile (0 < q ≤ total weight) off a CDF: the
// smallest value whose cumulative weight reaches q. If the CDF's total
// weight falls short of q it returns the worst observed value.
func Quantile(cdf []CDFPoint, q float64) float64 {
	for _, p := range cdf {
		if p.Cum >= q-failure.MassFloor {
			return p.Value
		}
	}
	if len(cdf) == 0 {
		return math.NaN()
	}
	return cdf[len(cdf)-1].Value
}

// Median returns the 0.5-quantile of plain values (no weights).
func Median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// zeroLoss, 1e-6 (1000 × lp.DefaultTol), is the PercLoss ReductionPercent
// counts as zero, the floor flexile's zeroPercLoss uses too: allocations
// come through te.MaxMin, whose frozen flows may sink 1e-6 below their
// level, so a smaller loss is solver noise, and a reduction measured
// against it is noise divided by noise.
const zeroLoss = 1000 * lp.DefaultTol

// ReductionPercent returns the relative reduction 100·(base−new)/base, with
// a value below zeroLoss in magnitude read as 0, and 0 when base is 0.
func ReductionPercent(base, new float64) float64 {
	if base < zeroLoss {
		return 0
	}
	if math.Abs(new) < zeroLoss {
		new = 0
	}
	return 100 * (base - new) / base
}
