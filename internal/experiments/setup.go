// Package experiments regenerates every table and figure of the paper's
// evaluation (§6 and the appendix). Each FigN function runs the relevant
// schemes on instances built with the paper's methodology — gravity traffic
// scaled to an MLU target, Weibull link failure probabilities, scenario
// enumeration above a probability cutoff, §6 tunnel policies — and returns
// the series/rows the corresponding figure plots.
//
// Scale selects how much compute a run takes: Tiny backs the testing.B
// benchmarks, Small is the default for the flexile-exp CLI, Paper matches
// the paper's full topology set and scenario coverage (hours on one core).
// The *shape* of each result — which scheme wins and by roughly how much —
// is the reproduction target at every scale; EXPERIMENTS.md records
// paper-vs-measured numbers.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"flexile/internal/eval"
	"flexile/internal/failure"
	"flexile/internal/obs"
	"flexile/internal/par"
	"flexile/internal/scheme"
	"flexile/internal/te"
	"flexile/internal/topo"
	"flexile/internal/traffic"
	"flexile/internal/tunnels"
)

// Scale selects the compute budget of an experiment run.
type Scale int

const (
	// Tiny is for benchmarks: two small topologies, ~12 scenarios.
	Tiny Scale = iota
	// Small runs in minutes on one core: seven topologies ≤ 21 nodes,
	// ~20 scenarios each.
	Small
	// Paper is the full §6 methodology: all 20 topologies, scenario cutoff
	// 1e-6 (hours).
	Paper
)

func (s Scale) String() string {
	switch s {
	case Tiny:
		return "tiny"
	case Small:
		return "small"
	case Paper:
		return "paper"
	default:
		return fmt.Sprintf("scale(%d)", int(s))
	}
}

// Config parametrizes experiment runs.
type Config struct {
	Scale Scale
	// Seed drives every stochastic input (Weibull draws, gravity masses,
	// class splits, emulation hashing).
	Seed int64
	// Topologies overrides the per-scale default topology list.
	Topologies []string
	// MaxScenarios caps the enumerated scenario count (top probability
	// first); 0 means the per-scale default.
	MaxScenarios int
	// Cutoff is the scenario probability cutoff; 0 means the per-scale
	// default (1e-6 at Paper scale, as §6).
	Cutoff float64
	// Workers is how many topologies the per-topology experiment sweeps
	// (Fig. 10–12, 14, 15, 18) run concurrently. 0 means runtime.NumCPU(),
	// 1 is strictly sequential. Results are identical for every worker
	// count; per-topology Elapsed/solving-time measurements contend for
	// cores when Workers > 1, so timing figures (Fig. 15) should be read
	// from Workers=1 runs.
	Workers int
	// Timeout bounds the wall clock of each per-topology sweep; 0 means
	// unlimited. The deadline is checked before each topology starts, so
	// a topology already being solved runs to completion; an expired
	// deadline aborts the sweep with an error wrapping
	// context.DeadlineExceeded.
	Timeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Topologies == nil {
		switch c.Scale {
		case Tiny:
			c.Topologies = []string{"Sprint", "B4"}
		case Small:
			c.Topologies = []string{"Sprint", "B4", "Highwinds", "IBM", "InternetMCI", "Quest", "CWIX"}
		default:
			c.Topologies = topo.Names()
		}
	}
	if c.MaxScenarios == 0 {
		switch c.Scale {
		case Tiny:
			c.MaxScenarios = 12
		case Small:
			c.MaxScenarios = 20
		default:
			c.MaxScenarios = 1 << 30
		}
	}
	if c.Cutoff == 0 {
		switch c.Scale {
		case Tiny:
			c.Cutoff = 1e-4
		case Small:
			c.Cutoff = 1e-5
		default:
			c.Cutoff = 1e-6
		}
	}
	return c
}

// TopoFailure records one topology whose run failed during a sweep; the
// topology is excluded from the figure's series and reported alongside.
type TopoFailure struct {
	Topology string
	Err      string
}

// forEachTopo runs fn(i, c.Topologies[i]) for every configured topology
// across the worker pool. fn must write its results into slots indexed by
// i (never append to shared state), which keeps every figure's output
// identical regardless of Workers. Call on a cfg that already has
// withDefaults applied.
//
// Failure isolation: a failing topology — an error or a recovered panic —
// does not abort the sweep. Every topology runs; the failures come back as
// TopoFailure values (in topology order) and the caller drops the failed
// rows from its series. Only cancellation (Config.Timeout) aborts the
// sweep with an error.
func (c Config) forEachTopo(fn func(i int, name string) error) ([]TopoFailure, error) {
	return c.sweep(c.Topologies, fn)
}

// sweep is forEachTopo over an explicit topology list (Fig. 18 uses its
// own subset).
func (c Config) sweep(names []string, fn func(i int, name string) error) ([]TopoFailure, error) {
	ctx := context.Background()
	if c.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Timeout)
		defer cancel()
	}
	errs := par.Collect(ctx, c.Workers, len(names), func(worker, i int) error {
		defer obs.From(ctx).Span("topology", int64(worker)+1, "name", names[i])()
		return fn(i, names[i])
	})
	var fails []TopoFailure
	for i, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, fmt.Errorf("experiments: topology sweep canceled: %w", err)
		}
		fails = append(fails, TopoFailure{Topology: names[i], Err: err.Error()})
	}
	return fails, nil
}

// failedSet indexes sweep failures by topology name.
func failedSet(fails []TopoFailure) map[string]bool {
	if len(fails) == 0 {
		return nil
	}
	out := make(map[string]bool, len(fails))
	for _, f := range fails {
		out[f.Topology] = true
	}
	return out
}

// renderFailures formats a sweep's failure list for text reports.
func renderFailures(fails []TopoFailure) string {
	if len(fails) == 0 {
		return ""
	}
	var b strings.Builder
	for _, f := range fails {
		fmt.Fprintf(&b, "  FAILED %-16s %s\n", f.Topology, f.Err)
	}
	return b.String()
}

// topoSeed perturbs the base seed per topology so different networks get
// independent draws.
func (c Config) topoSeed(name string) int64 {
	var h int64 = c.Seed
	for i := 0; i < len(name); i++ {
		h = h*131 + int64(name[i])
	}
	return h & 0x7fffffffffffffff
}

// SingleClass builds a single-class instance for the topology with the §6
// methodology: 3 disjointness-preferring tunnels per pair, gravity traffic
// at MLU 0.6, Weibull failure probabilities, scenarios above the cutoff,
// and the design target β set just below the all-flows-connected mass.
func (c Config) SingleClass(topoName string) (*te.Instance, error) {
	cfg := c.withDefaults()
	tp, err := topo.Load(topoName)
	if err != nil {
		return nil, err
	}
	inst := te.NewInstance(tp, []te.Class{
		{Name: "single", Beta: 0, Weight: 1, Tunnels: tunnels.SingleClass(3)},
	})
	return cfg.finish(inst, tp, topoName)
}

// TwoClass builds the §6 two-class instance: a latency-sensitive high
// priority class (3 single-failure-resilient shortest tunnels, design β
// from connectivity) and a low priority class (6 tunnels, β = 0.99, demand
// scaled ×2).
func (c Config) TwoClass(topoName string) (*te.Instance, error) {
	cfg := c.withDefaults()
	tp, err := topo.Load(topoName)
	if err != nil {
		return nil, err
	}
	inst := te.NewInstance(tp, []te.Class{
		{Name: "high", Beta: 0, Weight: 1000, Tunnels: tunnels.HighPriority(3)},
		{Name: "low", Beta: 0.99, Weight: 1, Tunnels: tunnels.LowPriority(3, 3)},
	})
	return cfg.finish(inst, tp, topoName)
}

// finish populates traffic, failure scenarios and design targets.
func (c Config) finish(inst *te.Instance, tp *topo.Topology, name string) (*te.Instance, error) {
	seed := c.topoSeed(name)
	if err := traffic.ApplyGravity(inst, traffic.GravityOptions{Seed: seed}); err != nil {
		return nil, err
	}
	inst.SetFailures(failure.WeibullProbs(tp.G, seed+1, failure.WeibullParams{}), c.Cutoff, c.MaxScenarios)
	inst.SetDesignTarget()
	return inst, nil
}

// SchemeRun is the post-analysis of one scheme on one instance.
type SchemeRun struct {
	Scheme   string
	Losses   [][]float64 // flow × scenario
	PercLoss []float64   // per class
	Elapsed  time.Duration
}

// RunScheme routes the instance with the scheme, validates capacity
// feasibility, and post-analyzes the losses.
func RunScheme(s scheme.Scheme, inst *te.Instance) (*SchemeRun, error) {
	start := time.Now()
	r, err := s.Route(inst)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name(), err)
	}
	elapsed := time.Since(start)
	if err := r.CheckCapacity(inst, 1e-4); err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name(), err)
	}
	losses := r.LossMatrix(inst)
	return &SchemeRun{
		Scheme:   s.Name(),
		Losses:   losses,
		PercLoss: eval.PercLossAll(inst, losses),
		Elapsed:  elapsed,
	}, nil
}

// ScenarioProbs extracts the scenario probability vector.
func ScenarioProbs(inst *te.Instance) []float64 {
	out := make([]float64, len(inst.Scenarios))
	for q, s := range inst.Scenarios {
		out[q] = s.Prob
	}
	return out
}

// Pearson computes the Pearson correlation coefficient of two vectors.
func Pearson(a, b []float64) float64 {
	n := float64(len(a))
	if n == 0 || len(a) != len(b) {
		return math.NaN()
	}
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range a {
		cov += (a[i] - ma) * (b[i] - mb)
		va += (a[i] - ma) * (a[i] - ma)
		vb += (b[i] - mb) * (b[i] - mb)
	}
	if va == 0 || vb == 0 {
		// Degenerate: constant vectors. Identical constants correlate
		// perfectly by convention here (the Fig. 9c comparison hits this
		// when neither model nor emulation loses anything).
		if va == 0 && vb == 0 {
			return 1
		}
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// renderCDF formats a CDF as "value@cum" steps for text reports.
func renderCDF(points []eval.CDFPoint, max int) string {
	if len(points) > max {
		// Keep ends and evenly sample the middle.
		sampled := make([]eval.CDFPoint, 0, max)
		for i := 0; i < max; i++ {
			sampled = append(sampled, points[i*(len(points)-1)/(max-1)])
		}
		points = sampled
	}
	s := ""
	for i, p := range points {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3f@%.4f", p.Value, p.Cum)
	}
	return s
}

// sortedCopy returns an ascending copy of the slice.
func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}
