// Package flexile is a from-scratch Go implementation of Flexile
// ("Flexile: Meeting bandwidth objectives almost always", CoNEXT 2022) — a
// wide-area traffic-engineering system that minimizes flow loss at a
// desired percentile across failure scenarios — together with every
// baseline the paper evaluates against (SWAN, SMORE/ScenBest, Teavar and
// flow-level CVaR variants), the optimization substrate they need (an LP
// simplex solver and a branch-and-bound MIP solver), and an emulation
// engine for validating routings at packet level.
//
// # Quick start
//
//	tp, _ := flexile.LoadTopology("IBM")
//	inst := flexile.NewSingleClassInstance(tp, 3)
//	flexile.ApplyGravityTraffic(inst, 1, 0.6)
//	flexile.GenerateFailures(inst, 2, 1e-5, 100)
//	flexile.SetDesignTarget(inst)
//
//	fx := flexile.NewFlexile()
//	routing, _ := fx.Route(inst)
//	ev := flexile.Evaluate(inst, routing)
//	fmt.Printf("PercLoss: %.2f%%\n", 100*ev.PercLoss[0])
//
// The deeper layers are exposed through type aliases so applications can
// drop down when needed: te (the TE model), topo/tunnels/traffic/failure
// (instance construction), eval (metrics), emu (emulation) and the scheme
// packages.
package flexile

import (
	"math"

	"flexile/internal/emu"
	"flexile/internal/eval"
	"flexile/internal/failure"
	"flexile/internal/graph"
	"flexile/internal/scheme"
	"flexile/internal/scheme/cvarflow"
	"flexile/internal/scheme/ffc"
	flexscheme "flexile/internal/scheme/flexile"
	"flexile/internal/scheme/ip"
	"flexile/internal/scheme/scenbest"
	"flexile/internal/scheme/swan"
	"flexile/internal/scheme/teavar"
	"flexile/internal/serve"
	"flexile/internal/te"
	"flexile/internal/topo"
	"flexile/internal/traffic"
	"flexile/internal/tunnels"
)

// Core model types, re-exported for applications.
type (
	// Topology is a named network graph.
	Topology = topo.Topology
	// Graph is the underlying capacitated multigraph.
	Graph = graph.Graph
	// Path is a tunnel path.
	Path = graph.Path
	// Instance is a complete TE problem: topology, classes, flows,
	// tunnels, demands and failure scenarios.
	Instance = te.Instance
	// Class is one traffic class with its percentile target β and weight.
	Class = te.Class
	// Routing is a per-scenario bandwidth assignment.
	Routing = te.Routing
	// Scenario is a disjoint failure state.
	Scenario = failure.Scenario
	// Scheme is any TE scheme (Flexile or a baseline).
	Scheme = scheme.Scheme
	// TunnelPolicy selects tunnels for a node pair. NewInstance may call
	// a class's policy concurrently for different pairs, so a policy must
	// not write shared state; the built-in ones are pure.
	TunnelPolicy = tunnels.Policy
	// DesignResult is the offline phase's output: critical scenario sets,
	// achieved PercLoss and convergence history.
	DesignResult = flexscheme.OfflineResult
	// DesignOptions tunes Flexile's offline decomposition and online
	// allocation.
	DesignOptions = flexscheme.Options
	// CriticalSet is the compact flow×scenario bitmap of critical
	// scenarios.
	CriticalSet = flexscheme.CriticalSet
	// EmulationOptions tunes the packet/fluid emulation engines.
	EmulationOptions = emu.Options
	// EmulationResult holds per-flow emulated losses for one scenario.
	EmulationResult = emu.Result
	// CDFPoint is one step of a weighted empirical CDF.
	CDFPoint = eval.CDFPoint
	// AugmentOptions tunes minimum-cost capacity augmentation (§4.4).
	AugmentOptions = flexscheme.AugmentOptions
	// AugmentResult is the outcome of capacity augmentation.
	AugmentResult = flexscheme.AugmentResult
)

// AugmentCapacity computes a minimum-cost capacity augmentation so every
// class meets its PercLoss target (§4.4 and the appendix): the offline
// decomposition generalized to the joint (critical-scenario, added-
// capacity) space.
func AugmentCapacity(inst *Instance, opt AugmentOptions) (*AugmentResult, error) {
	return flexscheme.Augment(inst, opt)
}

// Topologies lists the built-in Table-2 topology names.
func Topologies() []string { return topo.Names() }

// LoadTopology builds a named built-in topology (see Topologies), or
// returns an error for unknown names.
func LoadTopology(name string) (*Topology, error) { return topo.Load(name) }

// ParseTopology reads the text topology format:
//
//	node <name>
//	edge <nameA> <nameB> <capacity>
func ParseTopology(name, text string) (*Topology, error) { return topo.Parse(name, text) }

// TriangleTopology returns the paper's Fig. 1 motivating example.
func TriangleTopology() *Topology { return topo.Triangle() }

// RichlyConnected splits every link into two independently-failing
// half-capacity sublinks (the paper's §6.2 transform) and returns the
// mapping from new edge ids to source edge ids.
func RichlyConnected(t *Topology) (*Topology, []int) { return topo.RichlyConnected(t) }

// NewSingleClassInstance builds a single-class instance with n tunnels per
// pair chosen for disjointness (§6's single-class policy). The class
// percentile target β starts at zero; set it directly or via
// SetDesignTarget after generating failures.
func NewSingleClassInstance(t *Topology, tunnelsPerPair int) *Instance {
	return te.NewInstance(t, []Class{
		{Name: "single", Beta: 0, Weight: 1, Tunnels: tunnels.SingleClass(tunnelsPerPair)},
	})
}

// NewTwoClassInstance builds the §6 two-class instance: a latency-sensitive
// high-priority class (weight 1000, three single-failure-resilient
// shortest tunnels) and a low-priority class (β = 0.99, six tunnels).
func NewTwoClassInstance(t *Topology) *Instance {
	return te.NewInstance(t, []Class{
		{Name: "high", Beta: 0, Weight: 1000, Tunnels: tunnels.HighPriority(3)},
		{Name: "low", Beta: 0.99, Weight: 1, Tunnels: tunnels.LowPriority(3, 3)},
	})
}

// NewInstance builds an instance with custom classes.
func NewInstance(t *Topology, classes []Class) *Instance { return te.NewInstance(t, classes) }

// ApplyGravityTraffic fills the instance's demands with a gravity-model
// matrix scaled so the optimally-routed MLU equals targetMLU (the paper
// uses [0.5, 0.7]); two-class instances get the random split with the low
// class scaled ×2.
func ApplyGravityTraffic(inst *Instance, seed int64, targetMLU float64) error {
	return traffic.ApplyGravity(inst, traffic.GravityOptions{Seed: seed, TargetMLU: targetMLU})
}

// GenerateFailures samples Weibull link failure probabilities (median
// ≈ 0.001, §6) and enumerates all failure scenarios with probability at
// least cutoff, keeping at most maxScenarios (0 = unlimited) by
// probability.
func GenerateFailures(inst *Instance, seed int64, cutoff float64, maxScenarios int) {
	inst.SetFailures(failure.WeibullProbs(inst.Topo.G, seed, failure.WeibullParams{}), cutoff, maxScenarios)
}

// SetDesignTarget applies §6's design-target rule (te.Instance's
// SetDesignTarget): class 0's β goes just below the mass of scenarios in
// which every flow stays connected, and no class's β exceeds the connected
// mass of its least connected demanded flow. It returns class 0's β.
func SetDesignTarget(inst *Instance) float64 { return inst.SetDesignTarget() }

// NewCriticalSet allocates an empty flow×scenario critical bitmap (mainly
// useful for tests and tooling; Design produces populated ones).
func NewCriticalSet(flows, scenarios int) *CriticalSet {
	return flexscheme.NewCriticalSet(flows, scenarios)
}

// NewFlexile returns the Flexile scheme with default options.
func NewFlexile() *flexscheme.Scheme { return &flexscheme.Scheme{} }

// NewFlexileWith returns the Flexile scheme with explicit options (γ bound,
// iteration limits, ...).
func NewFlexileWith(opt DesignOptions) *flexscheme.Scheme { return &flexscheme.Scheme{Opt: opt} }

// Design runs only Flexile's offline phase: it identifies each flow's
// critical scenarios and the achievable PercLoss without computing the
// full per-scenario routing.
func Design(inst *Instance, opt DesignOptions) (*DesignResult, error) {
	return flexscheme.Offline(inst, opt)
}

// ExportArtifact serializes an instance plus its offline design result in
// the versioned, checksummed binary format that flexile-serve loads: the
// critical-set bitmap, subproblem losses, tunnel tables, demands, failure
// scenarios and γ, plus the ScenLossOpt vector when the design ran with
// γ on (a default design computes none). The returned bytes round-trip
// losslessly — a server loading them produces allocations bit-identical to
// AllocateOnFailure on the original instance.
func ExportArtifact(inst *Instance, design *DesignResult, opt DesignOptions) ([]byte, error) {
	a, err := serve.Build(inst, design, opt)
	if err != nil {
		return nil, err
	}
	return a.Encode(), nil
}

// AllocateOnFailure runs Flexile's online phase for one scenario index:
// critical flows get their promised bandwidth first, then a max-min
// allocation on loss distributes the residual (higher classes first). The
// returned fractions are per flow id; X is the per-tunnel allocation.
func AllocateOnFailure(inst *Instance, design *DesignResult, scenario int, opt DesignOptions) (fracs []float64, x [][][]float64, err error) {
	res, err := flexscheme.Online(inst, design, scenario, opt)
	if err != nil {
		return nil, nil, err
	}
	return res.Frac, res.X, nil
}

// Baseline schemes.

// NewSMORE returns the SMORE / ScenBest(MLU) baseline.
func NewSMORE() Scheme { return &scenbest.Scheme{DisplayName: "SMORE"} }

// NewScenBest returns ScenBest (identical algorithm, the paper's name for
// the per-scenario optimum).
func NewScenBest() Scheme { return &scenbest.Scheme{} }

// NewSWANThroughput returns SWAN's throughput-maximizing variant.
func NewSWANThroughput() Scheme { return &swan.Throughput{} }

// NewSWANMaxmin returns SWAN's approximate max-min variant.
func NewSWANMaxmin() Scheme { return &swan.Maxmin{} }

// NewTeavar returns Teavar (CVaR over scenario loss, static routing).
func NewTeavar() Scheme { return &teavar.Scheme{} }

// NewCvarFlowSt returns the paper's Cvar-Flow-St generalization.
func NewCvarFlowSt() Scheme { return &cvarflow.St{} }

// NewCvarFlowAd returns the paper's Cvar-Flow-Ad generalization.
func NewCvarFlowAd() Scheme { return &cvarflow.Ad{} }

// NewExactIP returns the direct MIP formulation (I) — exact but only
// viable on small instances.
func NewExactIP() Scheme { return &ip.Scheme{} }

// NewFFC returns the Forward Fault Correction baseline (§2): congestion-
// free under any f simultaneous link failures, with conservative admission.
func NewFFC(f int) Scheme { return &ffc.Scheme{F: f} }

// NewFlexileSequential returns the §4.4 explicit-priority variant: classes
// designed strictly in priority order, each on the capacity left by the
// previous.
func NewFlexileSequential() *flexscheme.SequentialScheme { return &flexscheme.SequentialScheme{} }

// AllSchemes returns every single-class-capable scheme keyed by name.
func AllSchemes() map[string]Scheme {
	return map[string]Scheme{
		"Flexile":         NewFlexile(),
		"SMORE":           NewSMORE(),
		"SWAN-Throughput": NewSWANThroughput(),
		"SWAN-Maxmin":     NewSWANMaxmin(),
		"Teavar":          NewTeavar(),
		"Cvar-Flow-St":    NewCvarFlowSt(),
		"Cvar-Flow-Ad":    NewCvarFlowAd(),
		"FFC(f=1)":        NewFFC(1),
		"IP":              NewExactIP(),
	}
}

// Evaluation is the post-analysis of a routing (§6's methodology).
type Evaluation struct {
	// Losses[f][q] is flow f's loss in scenario q.
	Losses [][]float64
	// FlowLoss[f] is the β_k-percentile loss of flow f (its class's β).
	FlowLoss []float64
	// PercLoss[k] is class k's PercLoss (max FlowLoss across its flows).
	PercLoss []float64
	// Penalty is Σ_k w_k·PercLoss_k, the offline objective.
	Penalty float64
}

// Evaluate post-analyzes a routing: per-flow per-scenario losses, flow
// percentile losses and per-class PercLoss.
func Evaluate(inst *Instance, r *Routing) *Evaluation {
	losses := r.LossMatrix(inst)
	return &Evaluation{
		Losses:   losses,
		FlowLoss: eval.FlowLossAll(inst, losses),
		PercLoss: eval.PercLossAll(inst, losses),
		Penalty:  eval.Penalty(inst, losses),
	}
}

// EvaluateLosses post-analyzes an externally produced loss matrix (e.g.
// from emulation).
func EvaluateLosses(inst *Instance, losses [][]float64) *Evaluation {
	return &Evaluation{
		Losses:   losses,
		FlowLoss: eval.FlowLossAll(inst, losses),
		PercLoss: eval.PercLossAll(inst, losses),
		Penalty:  eval.Penalty(inst, losses),
	}
}

// EmulatePacket replays a routing through the packet-level emulation engine
// for every scenario and returns the emulated loss matrix.
func EmulatePacket(inst *Instance, r *Routing, opt EmulationOptions) ([][]float64, error) {
	return emu.LossMatrix(inst, r, emu.Packet, opt)
}

// EmulateFluid replays a routing through the deterministic fluid engine.
func EmulateFluid(inst *Instance, r *Routing, opt EmulationOptions) ([][]float64, error) {
	return emu.LossMatrix(inst, r, emu.Fluid, opt)
}

// MLU returns the optimal-routing maximum link utilization of the
// instance's demands with no failures.
func MLU(inst *Instance) (float64, error) { return traffic.MLU(inst) }

// FlowLossPercentile computes the β-percentile of a loss series under the
// scenario probabilities (Definition 4.1); unenumerated probability mass
// counts as total loss.
func FlowLossPercentile(losses, probs []float64, beta float64) float64 {
	return eval.FlowLoss(losses, probs, beta)
}

// Inf is a convenience +∞ for demands and bounds.
var Inf = math.Inf(1)
