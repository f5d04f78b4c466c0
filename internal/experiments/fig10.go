package experiments

import (
	"fmt"
	"strings"

	"flexile/internal/eval"
	"flexile/internal/failure"
	"flexile/internal/scheme"
	"flexile/internal/scheme/cvarflow"
	"flexile/internal/scheme/flexile"
	"flexile/internal/scheme/scenbest"
	"flexile/internal/scheme/swan"
	"flexile/internal/scheme/teavar"
	"flexile/internal/te"
	"flexile/internal/topo"
	"flexile/internal/traffic"
	"flexile/internal/tunnels"
)

// Fig10Result compares Flexile against both SWAN variants on low-priority
// PercLoss across topologies (paper Fig. 10).
type Fig10Result struct {
	Topologies []string
	// LowPercLoss[scheme][i] is the low-priority-class PercLoss on
	// Topologies[i].
	LowPercLoss map[string][]float64
	// HighPercLoss likewise for the high-priority class (the paper reports
	// all schemes at zero).
	HighPercLoss map[string][]float64
	// Medians per scheme across topologies (low class).
	Medians map[string]float64
	// Failures lists topologies that failed and were excluded from the
	// series above.
	Failures []TopoFailure
}

// Fig10 runs the two-class comparison across the configured topologies.
// Paper shape: Flexile's median low-priority PercLoss is 0%, SWAN-Maxmin's
// is 58% (up to 93%), SWAN-Throughput's is 100% in many cases.
func Fig10(cfg Config) (*Fig10Result, error) {
	cfg = cfg.withDefaults()
	res := &Fig10Result{
		LowPercLoss:  map[string][]float64{},
		HighPercLoss: map[string][]float64{},
		Medians:      map[string]float64{},
	}
	// Topologies are independent: fan out across the worker pool, collect
	// per-topology runs by index, then assemble the series in topology
	// order so the output matches the sequential sweep exactly. A failed
	// topology is excluded (its partial row discarded) and reported.
	rows := make([][]*SchemeRun, len(cfg.Topologies))
	fails, err := cfg.forEachTopo(func(i int, name string) error {
		inst, err := cfg.TwoClass(name)
		if err != nil {
			return err
		}
		for _, s := range []scheme.Scheme{&flexile.Scheme{}, &swan.Maxmin{}, &swan.Throughput{}} {
			run, err := RunScheme(s, inst)
			if err != nil {
				return fmt.Errorf("%s on %s: %w", s.Name(), name, err)
			}
			rows[i] = append(rows[i], run)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Failures = fails
	failed := failedSet(fails)
	for i, name := range cfg.Topologies {
		if failed[name] {
			continue
		}
		res.Topologies = append(res.Topologies, name)
		for _, run := range rows[i] {
			res.HighPercLoss[run.Scheme] = append(res.HighPercLoss[run.Scheme], run.PercLoss[0])
			res.LowPercLoss[run.Scheme] = append(res.LowPercLoss[run.Scheme], run.PercLoss[1])
		}
	}
	for name, vals := range res.LowPercLoss {
		res.Medians[name] = eval.Median(vals)
	}
	return res, nil
}

// Render formats the comparison.
func (r *Fig10Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 10: low-priority PercLoss across topologies (99%ile)\n")
	fmt.Fprintf(&b, "  %-16s %10s %13s %17s\n", "topology", "Flexile", "SWAN-Maxmin", "SWAN-Throughput")
	for i, name := range r.Topologies {
		fmt.Fprintf(&b, "  %-16s %9.1f%% %12.1f%% %16.1f%%\n", name,
			100*r.LowPercLoss["Flexile"][i], 100*r.LowPercLoss["SWAN-Maxmin"][i], 100*r.LowPercLoss["SWAN-Throughput"][i])
	}
	fmt.Fprintf(&b, "  %-16s %9.1f%% %12.1f%% %16.1f%%\n", "median",
		100*r.Medians["Flexile"], 100*r.Medians["SWAN-Maxmin"], 100*r.Medians["SWAN-Throughput"])
	b.WriteString(renderFailures(r.Failures))
	return b.String()
}

// Fig11Result is the CDF over topologies of single-class PercLoss for
// Teavar, both CVaR generalizations, and Flexile (paper Fig. 11).
type Fig11Result struct {
	Topologies []string
	// PercLoss[scheme][i] on Topologies[i].
	PercLoss map[string][]float64
	// Medians per scheme.
	Medians map[string]float64
	// MedianReductionStVsTeavar is the median relative reduction of
	// Cvar-Flow-St vs Teavar (paper: >50%).
	MedianReductionStVsTeavar float64
	// Failures lists topologies that failed and were excluded.
	Failures []TopoFailure
}

// adSizeLimit bounds Cvar-Flow-Ad's instance size (pairs × scenarios):
// its LP replicates the routing for every scenario in one monolithic solve,
// which the paper also could not always finish ("TLE" entries in Fig. 12
// for Teavar at large sizes). Instances above the limit are reported as
// timed out and excluded from Ad's median.
const adSizeLimit = 1500

// Fig11 runs the single-class CVaR comparison across topologies. Paper
// shape: Flexile < Cvar-Flow-Ad < Cvar-Flow-St < Teavar, with Teavar at
// 100% on poorly-connected topologies.
func Fig11(cfg Config) (*Fig11Result, error) {
	cfg = cfg.withDefaults()
	res := &Fig11Result{
		PercLoss: map[string][]float64{},
		Medians:  map[string]float64{},
	}
	type entry struct {
		scheme string
		v      float64
	}
	rows := make([][]entry, len(cfg.Topologies))
	fails, err := cfg.forEachTopo(func(i int, name string) error {
		inst, err := cfg.SingleClass(name)
		if err != nil {
			return err
		}
		for _, s := range []scheme.Scheme{&teavar.Scheme{}, &cvarflow.St{}, &cvarflow.Ad{}, &flexile.Scheme{}} {
			if _, isAd := s.(*cvarflow.Ad); isAd && len(inst.Pairs)*(len(inst.Scenarios)+1) > adSizeLimit {
				rows[i] = append(rows[i], entry{s.Name(), -1}) // TLE marker
				continue
			}
			run, err := RunScheme(s, inst)
			if err != nil {
				return fmt.Errorf("%s on %s: %w", s.Name(), name, err)
			}
			rows[i] = append(rows[i], entry{run.Scheme, run.PercLoss[0]})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Failures = fails
	failed := failedSet(fails)
	for i, name := range cfg.Topologies {
		if failed[name] {
			continue
		}
		res.Topologies = append(res.Topologies, name)
		for _, e := range rows[i] {
			res.PercLoss[e.scheme] = append(res.PercLoss[e.scheme], e.v)
		}
	}
	var reds []float64
	for i := range res.Topologies {
		reds = append(reds, eval.ReductionPercent(res.PercLoss["Teavar"][i], res.PercLoss["Cvar-Flow-St"][i]))
	}
	res.MedianReductionStVsTeavar = eval.Median(reds)
	for name, vals := range res.PercLoss {
		var ok []float64
		for _, v := range vals {
			if v >= 0 {
				ok = append(ok, v)
			}
		}
		res.Medians[name] = eval.Median(ok)
	}
	return res, nil
}

// Render formats the comparison.
func (r *Fig11Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 11: single-class PercLoss across topologies\n")
	order := []string{"Teavar", "Cvar-Flow-St", "Cvar-Flow-Ad", "Flexile"}
	fmt.Fprintf(&b, "  %-16s", "topology")
	for _, s := range order {
		fmt.Fprintf(&b, " %13s", s)
	}
	b.WriteString("\n")
	for i, name := range r.Topologies {
		fmt.Fprintf(&b, "  %-16s", name)
		for _, s := range order {
			if v := r.PercLoss[s][i]; v < 0 {
				fmt.Fprintf(&b, " %13s", "TLE")
			} else {
				fmt.Fprintf(&b, " %12.1f%%", 100*v)
			}
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "  %-16s", "median")
	for _, s := range order {
		fmt.Fprintf(&b, " %12.1f%%", 100*r.Medians[s])
	}
	fmt.Fprintf(&b, "\n  median reduction Cvar-Flow-St vs Teavar: %.0f%%\n", r.MedianReductionStVsTeavar)
	b.WriteString(renderFailures(r.Failures))
	return b.String()
}

// Fig12Result compares Teavar, SMORE and Flexile on richly connected
// topologies — every link split into two independently failing sublinks
// (paper Fig. 12 and the §6.2 headline numbers).
type Fig12Result struct {
	Topologies []string
	PercLoss   map[string][]float64
	// MedianReductionVsSMORE / VsTeavar are Flexile's median relative
	// PercLoss reductions (paper: 46% and 63%).
	MedianReductionVsSMORE  float64
	MedianReductionVsTeavar float64
	// Failures lists topologies that failed and were excluded.
	Failures []TopoFailure
}

// Fig12 builds the richly connected variant of each topology: each link
// becomes two half-capacity sublinks inheriting the link's failure
// probability, so the network stays connected in far more scenarios. The
// scenario budget is deepened (3× the scale default, cutoff ÷10): a single
// sublink failure only removes half a link, so the interesting states are
// the multi-sublink ones further down the probability order.
func Fig12(cfg Config) (*Fig12Result, error) {
	cfg = cfg.withDefaults()
	cfg.MaxScenarios *= 3
	cfg.Cutoff /= 10
	res := &Fig12Result{
		PercLoss: map[string][]float64{},
	}
	rows := make([][]*SchemeRun, len(cfg.Topologies))
	fails, err := cfg.forEachTopo(func(i int, name string) error {
		inst, err := richlyConnectedInstance(cfg, name)
		if err != nil {
			return err
		}
		for _, s := range []scheme.Scheme{&teavar.Scheme{}, &scenbest.Scheme{DisplayName: "SMORE"}, &flexile.Scheme{}} {
			run, err := RunScheme(s, inst)
			if err != nil {
				return fmt.Errorf("%s on %s: %w", s.Name(), name, err)
			}
			rows[i] = append(rows[i], run)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Failures = fails
	failed := failedSet(fails)
	for i, name := range cfg.Topologies {
		if failed[name] {
			continue
		}
		res.Topologies = append(res.Topologies, name)
		for _, run := range rows[i] {
			res.PercLoss[run.Scheme] = append(res.PercLoss[run.Scheme], run.PercLoss[0])
		}
	}
	var redS, redT []float64
	for i := range res.Topologies {
		redS = append(redS, eval.ReductionPercent(res.PercLoss["SMORE"][i], res.PercLoss["Flexile"][i]))
		redT = append(redT, eval.ReductionPercent(res.PercLoss["Teavar"][i], res.PercLoss["Flexile"][i]))
	}
	res.MedianReductionVsSMORE = eval.Median(redS)
	res.MedianReductionVsTeavar = eval.Median(redT)
	return res, nil
}

// richlyConnectedInstance builds a single-class instance over the sublink
// transform, with sublinks inheriting their parent link's Weibull failure
// probability.
func richlyConnectedInstance(cfg Config, name string) (*te.Instance, error) {
	tp, err := topo.Load(name)
	if err != nil {
		return nil, err
	}
	rich, orig := topo.RichlyConnected(tp)
	inst := te.NewInstance(rich, []te.Class{
		{Name: "single", Beta: 0, Weight: 1, Tunnels: tunnels.SingleClass(3)},
	})
	seed := cfg.topoSeed(name)
	if err := traffic.ApplyGravity(inst, traffic.GravityOptions{Seed: seed}); err != nil {
		return nil, err
	}
	baseProbs := failure.WeibullProbs(tp.G, seed+1, failure.WeibullParams{})
	probs := make([]float64, rich.G.NumEdges())
	for e := range probs {
		probs[e] = baseProbs[orig[e]]
	}
	inst.SetFailures(probs, cfg.Cutoff, cfg.MaxScenarios)
	inst.SetDesignTarget()
	return inst, nil
}

// Render formats the comparison.
func (r *Fig12Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 12: richly connected topologies, single-class PercLoss\n")
	order := []string{"Teavar", "SMORE", "Flexile"}
	fmt.Fprintf(&b, "  %-16s", "topology")
	for _, s := range order {
		fmt.Fprintf(&b, " %10s", s)
	}
	b.WriteString("\n")
	for i, name := range r.Topologies {
		fmt.Fprintf(&b, "  %-16s", name)
		for _, s := range order {
			fmt.Fprintf(&b, " %9.1f%%", 100*r.PercLoss[s][i])
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "  median reduction Flexile vs SMORE: %.0f%%, vs Teavar: %.0f%%\n",
		r.MedianReductionVsSMORE, r.MedianReductionVsTeavar)
	b.WriteString(renderFailures(r.Failures))
	return b.String()
}
