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
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"flexile"
	"flexile/internal/obs"
)

func main() {
	topoName := flag.String("topo", "IBM", "built-in topology name (see topogen -list)")
	topoFile := flag.String("topofile", "", "load a text-format topology file instead")
	classes := flag.Int("classes", 1, "number of traffic classes (1 or 2)")
	seed := flag.Int64("seed", 1, "seed for traffic and failure generation")
	mlu := flag.Float64("mlu", 0.6, "target MLU for the gravity traffic matrix")
	cutoff := flag.Float64("cutoff", 1e-5, "scenario probability cutoff")
	maxScen := flag.Int("max", 50, "maximum enumerated scenarios (0 = unlimited)")
	iters := flag.Int("iters", 5, "offline decomposition iterations")
	gamma := flag.Float64("gamma", -1, "γ bound on non-critical scenario loss (<0 disables)")
	workers := flag.Int("workers", 0, "offline solve parallelism (0 = all cores, 1 = sequential; results identical)")
	timeout := flag.Duration("timeout", 0, "wall-clock limit for the offline solve, e.g. 30s, 5m (0 = unlimited)")
	compare := flag.Bool("compare", false, "also run the baseline schemes")
	sequential := flag.Bool("sequential", false, "use the §4.4 explicit-priority sequential design")
	artifactPath := flag.String("artifact", "", "write the serving artifact (for flexile-serve) to this file after the offline solve")
	metrics := flag.Bool("metrics", false, "emit the aggregated solver metrics as JSON on stdout at the end")
	tracePath := flag.String("trace", "", "write a chrome://tracing timeline of the solves to this file")
	logJSON := flag.Bool("logjson", false, "emit diagnostics on stderr as JSON log lines instead of text")
	flag.Parse()

	// Result tables keep going to stdout; diagnostics (degraded-mode
	// transitions, artifact/trace writes) are structured log events on
	// stderr so scripted pipelines can separate the two streams.
	var logger *slog.Logger
	if *logJSON {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	} else {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
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
	}

	var tp *flexile.Topology
	var err error
	if *topoFile != "" {
		data, rerr := os.ReadFile(*topoFile)
		if rerr != nil {
			fatal(rerr)
		}
		tp, err = flexile.ParseTopology(*topoFile, string(data))
	} else {
		tp, err = flexile.LoadTopology(*topoName)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("topology %s: %d nodes, %d links\n", tp.Name, tp.G.NumNodes(), tp.G.NumEdges())

	var inst *flexile.Instance
	switch *classes {
	case 1:
		inst = flexile.NewSingleClassInstance(tp, 3)
	case 2:
		inst = flexile.NewTwoClassInstance(tp)
	default:
		fatal(fmt.Errorf("classes must be 1 or 2, got %d", *classes))
	}
	if err := flexile.ApplyGravityTraffic(inst, *seed, *mlu); err != nil {
		fatal(err)
	}
	flexile.GenerateFailures(inst, *seed+1, *cutoff, *maxScen)
	beta := flexile.SetDesignTarget(inst)
	cov := 0.0
	for _, s := range inst.Scenarios {
		cov += s.Prob
	}
	fmt.Printf("scenarios: %d (coverage %.6f), design target β = %.6f\n", len(inst.Scenarios), cov, beta)

	opt := flexile.DesignOptions{MaxIterations: *iters, Gamma: *gamma, Workers: *workers, Timeout: *timeout}
	start := time.Now()
	design, err := flexile.Design(inst, opt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("offline: %d iterations, %d subproblem LPs, %v\n",
		design.Iterations, design.SubproblemSolves, design.Elapsed.Round(time.Millisecond))
	if design.Report.Degraded() {
		logger.Warn("offline solve entered degraded mode",
			"retried", len(design.Report.Retried),
			"skipped", len(design.Report.Skipped),
			"loss_precompute_fallbacks", len(design.Report.ScenLossFallback),
			"master_failures", len(design.Report.MasterFailures))
	}
	for it, pls := range design.IterPercLoss {
		fmt.Printf("  iteration %d:", it+1)
		for k, pl := range pls {
			fmt.Printf(" %s=%.2f%%", inst.Classes[k].Name, 100*pl)
		}
		fmt.Println()
	}
	fmt.Printf("critical-set storage: %d bytes for %d flows × %d scenarios\n",
		design.Critical.ByteSize(), design.Critical.Flows(), design.Critical.Scenarios())

	if *artifactPath != "" {
		blob, err := flexile.ExportArtifact(inst, design, opt)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*artifactPath, blob, 0o644); err != nil {
			fatal(err)
		}
		logger.Info("wrote serving artifact", "path", *artifactPath, "bytes", len(blob))
	}

	var routing *flexile.Routing
	if *sequential {
		seq := flexile.NewFlexileSequential()
		seq.Opt = opt
		routing, err = seq.Route(inst)
	} else {
		fx := flexile.NewFlexileWith(opt)
		routing, err = fx.Route(inst)
	}
	if err != nil {
		fatal(err)
	}
	ev := flexile.Evaluate(inst, routing)
	fmt.Printf("Flexile total time (offline + online all scenarios): %v\n", time.Since(start).Round(time.Millisecond))
	for k := range inst.Classes {
		fmt.Printf("  class %-6s β=%.5f  PercLoss = %.2f%%\n",
			inst.Classes[k].Name, inst.Classes[k].Beta, 100*ev.PercLoss[k])
	}

	if *compare {
		fmt.Println("\nbaselines:")
		baselines := []flexile.Scheme{flexile.NewSMORE(), flexile.NewSWANMaxmin(), flexile.NewSWANThroughput()}
		if *classes == 1 {
			baselines = append(baselines, flexile.NewTeavar(), flexile.NewCvarFlowSt(), flexile.NewCvarFlowAd(), flexile.NewFFC(1))
		}
		for _, s := range baselines {
			st := time.Now()
			r, err := s.Route(inst)
			if err != nil {
				fmt.Printf("  %-16s error: %v\n", s.Name(), err)
				continue
			}
			bev := flexile.Evaluate(inst, r)
			fmt.Printf("  %-16s", s.Name())
			for k := range inst.Classes {
				fmt.Printf(" %s=%.2f%%", inst.Classes[k].Name, 100*bev.PercLoss[k])
			}
			fmt.Printf("  (%v)\n", time.Since(st).Round(time.Millisecond))
		}
	}

	if *metrics {
		fmt.Printf("%s\n", collector.Snapshot().JSON())
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		if err := tracer.WriteJSON(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		logger.Info("wrote trace", "path", *tracePath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flexile:", err)
	os.Exit(1)
}
