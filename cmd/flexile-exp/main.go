// Command flexile-exp regenerates the paper's tables and figures.
//
// Usage:
//
//	flexile-exp -fig 1             # §3 motivating example (Figs. 1-4)
//	flexile-exp -fig 5 -scale small
//	flexile-exp -fig all -scale tiny
//	flexile-exp -fig 9 -runs 5     # emulation comparison
//	flexile-exp -fig gamma -topo Quest
//	flexile-exp -fig 10 -workers 1 # force a sequential topology sweep
//
//	flexile-exp -artifact quest.flxa -topo Quest   # export a serving artifact
//
// Figures: 1, 5, 6, 9, 10, 11, 12, 13, 14, 15, 18, gamma, table2, all.
// Scales: tiny (seconds-minutes), small (minutes), paper (§6 full, hours).
// -workers controls the per-topology fan-out (0 = all cores); results are
// identical for every worker count.
//
// Stdout carries exactly the rendered experiment results (plus the
// -metrics JSON when requested) — byte-identical across runs and safe to
// redirect into a results file. Progress, timing, and per-topology
// failure diagnostics are structured log lines on stderr (text by
// default, JSON with -logjson).
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"reflect"
	"strings"
	"time"

	"flexile"
	"flexile/internal/experiments"
	"flexile/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "flexile-exp:", err)
		os.Exit(1)
	}
}

// run is the whole CLI with its streams injected: experiment results go to
// stdout, diagnostics to stderr. Tests drive it with buffers to pin the
// stdout bytes.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("flexile-exp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "which figure to regenerate (1,5,6,9,10,11,12,13,14,15,18,gamma,table2,all)")
	scale := fs.String("scale", "small", "compute scale: tiny, small, paper")
	seed := fs.Int64("seed", 1, "base seed")
	runs := fs.Int("runs", 5, "emulation runs for fig 9")
	topoName := fs.String("topo", "Quest", "topology for -fig gamma")
	workers := fs.Int("workers", 0, "per-topology fan-out width (0 = all cores, 1 = sequential)")
	timeout := fs.Duration("timeout", 0, "wall-clock limit per topology sweep, e.g. 10m (0 = unlimited)")
	artifactOut := fs.String("artifact", "", "solve -topo offline and write a flexile-serve artifact to this file instead of running figures")
	metrics := fs.Bool("metrics", false, "emit the aggregated solver metrics as JSON on stdout after the figures")
	tracePath := fs.String("trace", "", "write a chrome://tracing timeline of the solves to this file")
	logJSON := fs.Bool("logjson", false, "emit stderr diagnostics as JSON log lines instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var logger *slog.Logger
	if *logJSON {
		logger = slog.New(slog.NewJSONHandler(stderr, nil))
	} else {
		logger = slog.New(slog.NewTextHandler(stderr, nil))
	}

	collector, tracer := installObs(*metrics, *tracePath)

	if *artifactOut != "" {
		opt := flexile.DesignOptions{MaxIterations: 5, Workers: *workers, Timeout: *timeout}
		if err := exportArtifact(*topoName, *seed, opt, *artifactOut, logger); err != nil {
			return err
		}
		return emitObs(collector, tracer, *metrics, *tracePath, stdout, logger)
	}

	var sc experiments.Scale
	switch strings.ToLower(*scale) {
	case "tiny":
		sc = experiments.Tiny
	case "small":
		sc = experiments.Small
	case "paper":
		sc = experiments.Paper
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}
	cfg := experiments.Config{Scale: sc, Seed: *seed, Workers: *workers, Timeout: *timeout}

	want := map[string]bool{}
	for _, f := range strings.Split(*fig, ",") {
		want[strings.TrimSpace(f)] = true
	}
	all := want["all"]
	ran := 0

	type job struct {
		key string
		run func() (interface{ Render() string }, error)
	}
	jobs := []job{
		{"table2", func() (interface{ Render() string }, error) { return experiments.Table2(), nil }},
		{"1", func() (interface{ Render() string }, error) { return experiments.Fig1Motivation() }},
		{"5", func() (interface{ Render() string }, error) { return experiments.Fig5(cfg) }},
		{"6", func() (interface{ Render() string }, error) { return experiments.Fig6(cfg) }},
		{"9", func() (interface{ Render() string }, error) { return experiments.Fig9(cfg, *runs) }},
		{"10", func() (interface{ Render() string }, error) { return experiments.Fig10(cfg) }},
		{"11", func() (interface{ Render() string }, error) { return experiments.Fig11(cfg) }},
		{"12", func() (interface{ Render() string }, error) { return experiments.Fig12(cfg) }},
		{"13", func() (interface{ Render() string }, error) { return experiments.Fig13(cfg) }},
		{"14", func() (interface{ Render() string }, error) { return experiments.Fig14(cfg, 5) }},
		{"15", func() (interface{ Render() string }, error) { return experiments.Fig15(cfg, 0) }},
		{"18", func() (interface{ Render() string }, error) { return experiments.Fig18(cfg, nil) }},
		{"gamma", func() (interface{ Render() string }, error) { return experiments.GammaVariant(cfg, *topoName, 0.05) }},
	}
	for _, j := range jobs {
		if !all && !want[j.key] {
			continue
		}
		start := time.Now()
		res, err := j.run()
		if err != nil {
			return fmt.Errorf("fig %s: %w", j.key, err)
		}
		fmt.Fprint(stdout, res.Render())
		logSweepFailures(logger, j.key, res)
		logger.Info("figure complete",
			"fig", j.key,
			"scale", sc.String(),
			"elapsed", time.Since(start).Round(time.Millisecond).String())
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no figure matched %q", *fig)
	}
	return emitObs(collector, tracer, *metrics, *tracePath, stdout, logger)
}

// logSweepFailures surfaces a figure's per-topology failures as structured
// warnings. The rendered report already lists them (FAILED rows, pinned by
// the golden tests); this duplicates the same facts where log pipelines
// can alert on them. Result types that track failures expose a
// `Failures []experiments.TopoFailure` field, found reflectively so new
// figures inherit the behavior by following the convention.
func logSweepFailures(lg *slog.Logger, fig string, res any) {
	v := reflect.ValueOf(res)
	for v.Kind() == reflect.Pointer {
		if v.IsNil() {
			return
		}
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return
	}
	f := v.FieldByName("Failures")
	if !f.IsValid() {
		return
	}
	fails, ok := f.Interface().([]experiments.TopoFailure)
	if !ok {
		return
	}
	for _, tf := range fails {
		lg.Warn("topology failed during sweep", "fig", fig, "topology", tf.Topology, "error", tf.Err)
	}
}

// installObs wires the process-global metrics collector and tracer the
// -metrics/-trace flags request; every solve below picks them up through
// the context fallback.
func installObs(metrics bool, tracePath string) (*obs.Collector, *obs.Tracer) {
	if !metrics && tracePath == "" {
		return nil, nil
	}
	collector := obs.New()
	var tracer *obs.Tracer
	if tracePath != "" {
		tracer = obs.NewTracer()
		collector.AttachTracer(tracer)
	}
	obs.SetGlobal(collector)
	return collector, tracer
}

// emitObs writes the requested metrics JSON (stdout) and trace file.
func emitObs(collector *obs.Collector, tracer *obs.Tracer, metrics bool, tracePath string, stdout io.Writer, lg *slog.Logger) error {
	if metrics {
		fmt.Fprintf(stdout, "%s\n", collector.Snapshot().JSON())
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := tracer.WriteJSON(f); err != nil {
			return err
		}
		lg.Info("wrote trace", "path", tracePath)
	}
	return nil
}

// exportArtifact runs the offline pipeline on one topology (single class,
// gravity traffic, enumerated failures — the §6 methodology) and writes
// the serving artifact flexile-serve loads.
func exportArtifact(topoName string, seed int64, opt flexile.DesignOptions, out string, lg *slog.Logger) error {
	tp, err := flexile.LoadTopology(topoName)
	if err != nil {
		return err
	}
	inst := flexile.NewSingleClassInstance(tp, 3)
	if err := flexile.ApplyGravityTraffic(inst, seed, 0.6); err != nil {
		return err
	}
	flexile.GenerateFailures(inst, seed+1, 1e-5, 50)
	flexile.SetDesignTarget(inst)
	design, err := flexile.Design(inst, opt)
	if err != nil {
		return err
	}
	blob, err := flexile.ExportArtifact(inst, design, opt)
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		return err
	}
	lg.Info("wrote serving artifact",
		"topology", tp.Name,
		"scenarios", len(inst.Scenarios),
		"bytes", len(blob),
		"path", out)
	return nil
}
