// Package te defines the shared traffic-engineering model every scheme in
// this repository operates on: a problem Instance (topology, traffic
// classes, flows, tunnels, failure scenarios), the per-scenario Routing
// produced by a scheme, and loss accounting over both.
//
// Terminology follows the paper (§4.1): a flow is the traffic between one
// site pair in one traffic class, so there are |K|·|P| flows; a failure
// scenario is a disjoint network state with an exact set of failed links.
package te

import (
	"context"
	"errors"
	"fmt"
	"math"

	"flexile/internal/failure"
	"flexile/internal/graph"
	"flexile/internal/lp"
	"flexile/internal/par"
	"flexile/internal/topo"
	"flexile/internal/tunnels"
)

// Class describes one traffic class.
type Class struct {
	// Name is a display label ("high", "low", ...).
	Name string
	// Beta is the target probability β_k at which the class's bandwidth
	// requirement must be met (e.g. 0.999).
	Beta float64
	// Weight is w_k, the penalty weight of the class's PercLoss in the
	// offline objective Σ_k w_k·α_k.
	Weight float64
	// Tunnels selects this class's tunnels per pair.
	Tunnels tunnels.Policy
}

// Instance is a complete TE problem.
type Instance struct {
	Topo    *topo.Topology
	Classes []Class
	// Pairs lists unordered node pairs (u < v); flows reference them.
	Pairs [][2]int
	// Tunnels[k][i] are the tunnels of pair i in class k.
	Tunnels [][][]graph.Path
	// Demand[k][i] is the traffic demand of flow (k, i).
	Demand [][]float64
	// Scenarios are the enumerated disjoint failure states.
	Scenarios []failure.Scenario
	// ScenDemand optionally assigns a different traffic matrix to each
	// scenario (the §4.4 "more general scenarios" extension, where a
	// scenario is a joint failure state and demand state): ScenDemand[q]
	// is nil (use Demand) or a per-flow-id demand vector d_f^q. Flows with
	// zero base demand stay excluded from design regardless of overrides.
	ScenDemand [][]float64
	// LinkProbs are the per-edge failure probabilities that generated the
	// scenarios (kept for reporting).
	LinkProbs []float64
}

// NewInstance builds pairs and tunnels for each class; demands start at
// zero (use the traffic package to populate them) and scenarios empty.
// The class policies run concurrently over the pairs, one worker per core;
// each pair's tunnels land at its index, so the instance is the one a
// sequential build gives. A policy's panic is re-raised with its value.
func NewInstance(t *topo.Topology, classes []Class) *Instance {
	inst := &Instance{Topo: t, Classes: classes}
	n := t.G.NumNodes()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			inst.Pairs = append(inst.Pairs, [2]int{u, v})
		}
	}
	inst.Tunnels = make([][][]graph.Path, len(classes))
	inst.Demand = make([][]float64, len(classes))
	for k := range classes {
		inst.Tunnels[k] = make([][]graph.Path, len(inst.Pairs))
		inst.Demand[k] = make([]float64, len(inst.Pairs))
	}
	errs := par.Collect(context.Background(), 0, inst.NumFlows(), func(_, f int) error {
		k, i := inst.FlowOf(f)
		pr := inst.Pairs[i]
		inst.Tunnels[k][i] = classes[k].Tunnels(t.G, pr[0], pr[1])
		return nil
	})
	for _, err := range errs {
		var pe *par.PanicError
		if errors.As(err, &pe) {
			panic(pe.Value)
		}
	}
	return inst
}

// NumFlows reports |K|·|P|.
func (inst *Instance) NumFlows() int { return len(inst.Classes) * len(inst.Pairs) }

// FlowID maps (class, pair) to a dense flow id.
func (inst *Instance) FlowID(k, pair int) int { return k*len(inst.Pairs) + pair }

// FlowOf inverts FlowID.
func (inst *Instance) FlowOf(f int) (k, pair int) {
	return f / len(inst.Pairs), f % len(inst.Pairs)
}

// FlowDemand returns the base demand of flow f.
func (inst *Instance) FlowDemand(f int) float64 {
	k, i := inst.FlowOf(f)
	return inst.Demand[k][i]
}

// DemandIn returns flow (k,i)'s demand in scenario q, honoring per-scenario
// traffic matrices when configured. q < 0 means the base matrix.
func (inst *Instance) DemandIn(k, i, q int) float64 {
	if q >= 0 && inst.ScenDemand != nil && q < len(inst.ScenDemand) && inst.ScenDemand[q] != nil {
		return inst.ScenDemand[q][inst.FlowID(k, i)]
	}
	return inst.Demand[k][i]
}

// ScenDemandVector returns the full per-flow demand vector of scenario q
// (nil when the base matrix applies).
func (inst *Instance) ScenDemandVector(q int) []float64 {
	if q >= 0 && inst.ScenDemand != nil && q < len(inst.ScenDemand) {
		return inst.ScenDemand[q]
	}
	return nil
}

// Capacity returns link e's capacity c_e.
func (inst *Instance) Capacity(e int) float64 { return inst.Topo.G.Edge(e).Capacity }

// TunnelAlive reports whether tunnel t of (k, pair) survives the scenario.
func (inst *Instance) TunnelAlive(k, pair, t int, scen failure.Scenario) bool {
	return inst.Tunnels[k][pair][t].Alive(scen.Alive())
}

// FlowConnected reports whether flow (k, pair) has at least one live tunnel
// in the scenario — the connectivity notion used for the warm start (§4.2)
// and for the "disconnected flow" accounting in §6.
func (inst *Instance) FlowConnected(k, pair int, scen failure.Scenario) bool {
	for t := range inst.Tunnels[k][pair] {
		if inst.TunnelAlive(k, pair, t, scen) {
			return true
		}
	}
	return false
}

// FlowConnMass returns, per flow, the probability mass of scenarios in
// which the flow is connected (over the enumerated scenarios).
func (inst *Instance) FlowConnMass() []float64 {
	out := make([]float64, inst.NumFlows())
	for _, s := range inst.Scenarios {
		for k := range inst.Classes {
			for i := range inst.Pairs {
				if inst.FlowConnected(k, i, s) {
					out[inst.FlowID(k, i)] += s.Prob
				}
			}
		}
	}
	return out
}

// AllFlowsConnectedMass returns the probability mass of scenarios where
// every flow has a live tunnel — the basis of the §6 design target.
func (inst *Instance) AllFlowsConnectedMass() float64 {
	tot := 0.0
	for _, s := range inst.Scenarios {
		ok := true
		for k := range inst.Classes {
			for i := range inst.Pairs {
				if !inst.FlowConnected(k, i, s) {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			tot += s.Prob
		}
	}
	return tot
}

// SetFailures installs the §6 failure model: the per-link failure
// probabilities and every failure scenario with probability at least
// cutoff, most probable first, keeping at most max of them (max ≤ 0 keeps
// all).
func (inst *Instance) SetFailures(probs []float64, cutoff float64, max int) {
	inst.LinkProbs = probs
	scens := failure.Enumerate(probs, cutoff)
	if max > 0 && len(scens) > max {
		scens = scens[:max]
	}
	inst.Scenarios = scens
}

// SetDesignTarget applies §6's design-target rule to the enumerated
// scenarios and returns class 0's β. Class 0's β goes just below the mass
// of scenarios in which every flow stays connected, capped at the paper's
// 99.9% SLO and floored at 0.5; other classes keep their configured β.
// Every class's β then stays below the connected mass of its least
// connected demanded flow, since no scheme can serve a disconnected flow
// and the offline coverage constraint (3) would be infeasible.
func (inst *Instance) SetDesignTarget() float64 {
	beta := inst.AllFlowsConnectedMass() - lp.DefaultTol
	if beta > 0.999 {
		beta = 0.999
	}
	// Keep the residual (unenumerated) probability mass small relative to
	// the tail 1−β, otherwise the percentile is dominated by scenarios no
	// scheme can see (a truncation artifact, not a TE property).
	if cov := failure.Coverage(inst.Scenarios); beta > 1-8*(1-cov) {
		beta = 1 - 8*(1-cov)
	}
	if beta < 0.5 {
		beta = 0.5
	}
	inst.Classes[0].Beta = beta
	connMass := inst.FlowConnMass()
	for k := range inst.Classes {
		minMass := 1.0
		for i := range inst.Pairs {
			if inst.Demand[k][i] <= 0 {
				continue
			}
			if m := connMass[inst.FlowID(k, i)]; m < minMass {
				minMass = m
			}
		}
		if inst.Classes[k].Beta > minMass-lp.DefaultTol {
			inst.Classes[k].Beta = minMass - lp.DefaultTol
		}
	}
	return inst.Classes[0].Beta
}

// Routing is a complete per-scenario bandwidth assignment:
// X[q][k][i][t] is the bandwidth on tunnel t of pair i, class k, in
// scenario q (the paper's x_ktq).
type Routing struct {
	X [][][][]float64
}

// NewRouting allocates a zero routing shaped for the instance.
func NewRouting(inst *Instance) *Routing {
	r := &Routing{X: make([][][][]float64, len(inst.Scenarios))}
	for q := range r.X {
		r.X[q] = make([][][]float64, len(inst.Classes))
		for k := range inst.Classes {
			r.X[q][k] = make([][]float64, len(inst.Pairs))
			for i := range inst.Pairs {
				r.X[q][k][i] = make([]float64, len(inst.Tunnels[k][i]))
			}
		}
	}
	return r
}

// Delivered returns the bandwidth flow (k, i) receives in scenario q:
// the allocation summed over tunnels that are alive in that scenario,
// capped by the scenario's demand.
func (r *Routing) Delivered(inst *Instance, k, i, q int) float64 {
	scen := inst.Scenarios[q]
	tot := 0.0
	for t, x := range r.X[q][k][i] {
		if x > 0 && inst.TunnelAlive(k, i, t, scen) {
			tot += x
		}
	}
	if d := inst.DemandIn(k, i, q); tot > d {
		return d
	}
	return tot
}

// Loss returns l_fq = max(0, 1 − delivered/demand) for flow (k,i) in
// scenario q. Zero-demand flows have zero loss.
func (r *Routing) Loss(inst *Instance, k, i, q int) float64 {
	d := inst.DemandIn(k, i, q)
	if d <= 0 {
		return 0
	}
	l := 1 - r.Delivered(inst, k, i, q)/d
	if l < 0 {
		return 0
	}
	if l > 1 {
		return 1
	}
	return l
}

// LossMatrix returns losses[f][q] for every flow and scenario.
func (r *Routing) LossMatrix(inst *Instance) [][]float64 {
	out := make([][]float64, inst.NumFlows())
	for k := range inst.Classes {
		for i := range inst.Pairs {
			f := inst.FlowID(k, i)
			row := make([]float64, len(inst.Scenarios))
			for q := range inst.Scenarios {
				row[q] = r.Loss(inst, k, i, q)
			}
			out[f] = row
		}
	}
	return out
}

// CheckCapacity verifies no link is oversubscribed in any scenario (within
// tol) and that no failed-link tunnel carries traffic. It returns the first
// violation found.
func (r *Routing) CheckCapacity(inst *Instance, tol float64) error {
	g := inst.Topo.G
	for q, scen := range inst.Scenarios {
		use := make([]float64, g.NumEdges())
		for k := range inst.Classes {
			for i := range inst.Pairs {
				for t, x := range r.X[q][k][i] {
					if x <= 0 {
						continue
					}
					for _, e := range inst.Tunnels[k][i][t].Edges {
						use[e] += x
					}
				}
			}
		}
		for e := 0; e < g.NumEdges(); e++ {
			cap := g.Edge(e).Capacity
			if scen.IsFailed(e) {
				cap = 0
			}
			if use[e] > cap+tol {
				return fmt.Errorf("te: scenario %d link %d carries %.6g over capacity %.6g", q, e, use[e], cap)
			}
		}
	}
	return nil
}

// TotalDemand sums the demand over all flows.
func (inst *Instance) TotalDemand() float64 {
	tot := 0.0
	for k := range inst.Classes {
		for i := range inst.Pairs {
			tot += inst.Demand[k][i]
		}
	}
	return tot
}

// ScaleDemands multiplies every demand (including per-scenario overrides)
// by s.
func (inst *Instance) ScaleDemands(s float64) {
	for k := range inst.Classes {
		for i := range inst.Pairs {
			inst.Demand[k][i] *= s
		}
	}
	for q := range inst.ScenDemand {
		for f := range inst.ScenDemand[q] {
			inst.ScenDemand[q][f] *= s
		}
	}
}

// ScaleClassDemands multiplies class k's demands (including per-scenario
// overrides) by s.
func (inst *Instance) ScaleClassDemands(k int, s float64) {
	for i := range inst.Pairs {
		inst.Demand[k][i] *= s
	}
	for q := range inst.ScenDemand {
		if inst.ScenDemand[q] == nil {
			continue
		}
		for i := range inst.Pairs {
			inst.ScenDemand[q][inst.FlowID(k, i)] *= s
		}
	}
}

// Clone deep-copies the instance (scenarios and tunnels are shared, demand
// slices are copied) so experiments can perturb demands independently.
func (inst *Instance) Clone() *Instance {
	out := *inst
	out.Demand = make([][]float64, len(inst.Demand))
	for k := range inst.Demand {
		out.Demand[k] = append([]float64(nil), inst.Demand[k]...)
	}
	if inst.ScenDemand != nil {
		out.ScenDemand = make([][]float64, len(inst.ScenDemand))
		for q := range inst.ScenDemand {
			if inst.ScenDemand[q] != nil {
				out.ScenDemand[q] = append([]float64(nil), inst.ScenDemand[q]...)
			}
		}
	}
	return &out
}

// NoFailure returns the all-links-alive scenario with probability 1, used
// when scaling traffic matrices.
func NoFailure() failure.Scenario { return failure.Scenario{Prob: 1} }

// Infinity is a convenience alias used by scheme packages.
var Infinity = math.Inf(1)
