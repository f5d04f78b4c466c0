// Command flexile runs the Flexile TE pipeline end to end on a topology:
// build the instance (§6 methodology), run the offline decomposition,
// apply the online allocation to every failure scenario, post-analyze the
// losses, and optionally compare against the baseline schemes.
//
// Usage:
//
//	flexile -topo IBM                         # single class, defaults
//	flexile -topo Sprint -classes 2           # two traffic classes
//	flexile -topo IBM -compare                # also run every baseline
//	flexile -topo IBM -cutoff 1e-6 -max 200   # scenario enumeration knobs
//	flexile -topofile net.txt                 # load a text-format topology
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"time"

	"flexile"
	"flexile/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "flexile:", err)
		os.Exit(1)
	}
}

// run is the whole CLI with its streams injected: result tables go to
// stdout, diagnostics to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("flexile", flag.ContinueOnError)
	fs.SetOutput(stderr)
	topoName := fs.String("topo", "IBM", "built-in topology name (see topogen -list)")
	topoFile := fs.String("topofile", "", "load a text-format topology file instead")
	classes := fs.Int("classes", 1, "number of traffic classes (1 or 2)")
	seed := fs.Int64("seed", 1, "seed for traffic and failure generation")
	mlu := fs.Float64("mlu", 0.6, "target MLU for the gravity traffic matrix")
	cutoff := fs.Float64("cutoff", 1e-5, "scenario probability cutoff")
	maxScen := fs.Int("max", 50, "maximum enumerated scenarios (0 = unlimited)")
	iters := fs.Int("iters", 5, "offline decomposition iterations")
	gamma := fs.Float64("gamma", -1, "γ bound on non-critical scenario loss (>0 bounds, <0 disables; 0 is rejected)")
	workers := fs.Int("workers", 0, "offline solve parallelism (0 = all cores, 1 = sequential; results identical)")
	timeout := fs.Duration("timeout", 0, "wall-clock limit for the offline solve, e.g. 30s, 5m (0 = unlimited)")
	compare := fs.Bool("compare", false, "also run the baseline schemes")
	sequential := fs.Bool("sequential", false, "use the §4.4 explicit-priority sequential design")
	artifactPath := fs.String("artifact", "", "write the serving artifact (for flexile-serve) to this file after the offline solve")
	metrics := fs.Bool("metrics", false, "emit the aggregated solver metrics as JSON on stdout at the end")
	tracePath := fs.String("trace", "", "write a chrome://tracing timeline of the solves to this file")
	logJSON := fs.Bool("logjson", false, "emit diagnostics on stderr as JSON log lines instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := checkGamma(*gamma); err != nil {
		fs.Usage()
		return err
	}

	// Result tables keep going to stdout; diagnostics (degraded-mode
	// transitions, artifact/trace writes) are structured log events on
	// stderr so scripted pipelines can separate the two streams.
	var logger *slog.Logger
	if *logJSON {
		logger = slog.New(slog.NewJSONHandler(stderr, nil))
	} else {
		logger = slog.New(slog.NewTextHandler(stderr, nil))
	}

	// Wire the process-global collector/tracer; every solve in the pipeline
	// picks them up through the context fallback.
	var collector *obs.Collector
	var tracer *obs.Tracer
	if *metrics || *tracePath != "" {
		collector = obs.New()
		if *tracePath != "" {
			tracer = obs.NewTracer()
			collector.AttachTracer(tracer)
		}
		obs.SetGlobal(collector)
		defer obs.SetGlobal(nil)
	}

	var tp *flexile.Topology
	var err error
	if *topoFile != "" {
		data, rerr := os.ReadFile(*topoFile)
		if rerr != nil {
			return rerr
		}
		tp, err = flexile.ParseTopology(*topoFile, string(data))
	} else {
		tp, err = flexile.LoadTopology(*topoName)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "topology %s: %d nodes, %d links\n", tp.Name, tp.G.NumNodes(), tp.G.NumEdges())

	var inst *flexile.Instance
	switch *classes {
	case 1:
		inst = flexile.NewSingleClassInstance(tp, 3)
	case 2:
		inst = flexile.NewTwoClassInstance(tp)
	default:
		return fmt.Errorf("classes must be 1 or 2, got %d", *classes)
	}
	if err := flexile.ApplyGravityTraffic(inst, *seed, *mlu); err != nil {
		return err
	}
	flexile.GenerateFailures(inst, *seed+1, *cutoff, *maxScen)
	beta := flexile.SetDesignTarget(inst)
	cov := 0.0
	for _, s := range inst.Scenarios {
		cov += s.Prob
	}
	fmt.Fprintf(stdout, "scenarios: %d (coverage %.6f), design target β = %.6f\n", len(inst.Scenarios), cov, beta)

	// One offline solve: the scheme that routes every scenario also
	// yields the design that is printed and exported.
	opt := flexile.DesignOptions{MaxIterations: *iters, Gamma: *gamma, Workers: *workers, Timeout: *timeout}
	start := time.Now()
	var routing *flexile.Routing
	var design *flexile.DesignResult
	if *sequential {
		seq := flexile.NewFlexileSequential()
		seq.Opt = opt
		routing, err = seq.Route(inst)
		design = seq.Offline
	} else {
		fx := flexile.NewFlexileWith(opt)
		routing, err = fx.Route(inst)
		design = fx.Offline
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "offline: %d iterations, %d subproblem LPs, %v\n",
		design.Iterations, design.SubproblemSolves, design.Elapsed.Round(time.Millisecond))
	if design.Report.Degraded() {
		logger.Warn("offline solve entered degraded mode",
			"retried", len(design.Report.Retried),
			"skipped", len(design.Report.Skipped),
			"loss_precompute_fallbacks", len(design.Report.ScenLossFallback),
			"master_failures", len(design.Report.MasterFailures))
	}
	for it, pls := range design.IterPercLoss {
		fmt.Fprintf(stdout, "  iteration %d:", it+1)
		for k, pl := range pls {
			fmt.Fprintf(stdout, " %s=%.2f%%", inst.Classes[k].Name, 100*pl)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "critical-set storage: %d bytes for %d flows × %d scenarios\n",
		design.Critical.ByteSize(), design.Critical.Flows(), design.Critical.Scenarios())

	if *artifactPath != "" {
		blob, err := flexile.ExportArtifact(inst, design, opt)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*artifactPath, blob, 0o644); err != nil {
			return err
		}
		logger.Info("wrote serving artifact", "path", *artifactPath, "bytes", len(blob))
	}

	ev := flexile.Evaluate(inst, routing)
	fmt.Fprintf(stdout, "Flexile total time (offline + online all scenarios): %v\n", time.Since(start).Round(time.Millisecond))
	for k := range inst.Classes {
		fmt.Fprintf(stdout, "  class %-6s β=%.5f  PercLoss = %.2f%%\n",
			inst.Classes[k].Name, inst.Classes[k].Beta, 100*ev.PercLoss[k])
	}

	if *compare {
		fmt.Fprintln(stdout, "\nbaselines:")
		baselines := []flexile.Scheme{flexile.NewSMORE(), flexile.NewSWANMaxmin(), flexile.NewSWANThroughput()}
		if *classes == 1 {
			baselines = append(baselines, flexile.NewTeavar(), flexile.NewCvarFlowSt(), flexile.NewCvarFlowAd(), flexile.NewFFC(1))
		}
		for _, s := range baselines {
			st := time.Now()
			r, err := s.Route(inst)
			if err != nil {
				fmt.Fprintf(stdout, "  %-16s error: %v\n", s.Name(), err)
				continue
			}
			bev := flexile.Evaluate(inst, r)
			fmt.Fprintf(stdout, "  %-16s", s.Name())
			for k := range inst.Classes {
				fmt.Fprintf(stdout, " %s=%.2f%%", inst.Classes[k].Name, 100*bev.PercLoss[k])
			}
			fmt.Fprintf(stdout, "  (%v)\n", time.Since(st).Round(time.Millisecond))
		}
	}

	if *metrics {
		fmt.Fprintf(stdout, "%s\n", collector.Snapshot().JSON())
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		if err := tracer.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		logger.Info("wrote trace", "path", *tracePath)
	}
	return nil
}

// checkGamma rejects -gamma 0: the design reads γ = 0 as "no bound", the
// opposite of what a user asking for zero extra loss means.
func checkGamma(gamma float64) error {
	if gamma == 0 {
		return errors.New("-gamma 0 disables the γ bound; for the tightest bound pass a small positive γ such as 1e-9")
	}
	return nil
}
