// Command bench is the repository's benchmark: seven fixed workloads over
// the two things a user of this system feels — wall-clock from an instance
// to a design through the public flexile.Design facade, and client-observed
// latency and capacity of the real flexile-serve binary over loopback HTTP —
// each checked against an oracle, with a traced mode that attributes the
// end-to-end numbers to the repo's layers. See README.md in this directory
// and BENCHMARK.json at the repository root.
//
//	bash bench/run.sh --workload serve-hit --seed 1 --seconds 10 --trace 0   # one run, as the driver does it
//	go run -C bench .                                                        # all workloads, tracing off
//	go run -C bench . -trace spans.json                                      # all workloads, traced
//	go run -C bench . -runs 5 -out a.json                                    # a set of runs for -compare
//	go run -C bench . -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := realMain(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// resultLine is the last line a single-workload run prints: exactly these
// four keys.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runExtras is what a run reports beside its result line: the ungated
// operation metrics, and why the run is invalid if it is (the harness, not
// the program, set its numbers; summaries and comparisons leave it out).
type runExtras struct {
	Ops     map[string]metricValue `json:"ops,omitempty"`
	Invalid string                 `json:"invalid,omitempty"`
}

// runRecord is one run inside a result file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	resultLine
	runExtras
}

// extrasPrefix starts the line, second to last of a single-workload run,
// that carries runExtras as JSON for the parent process to record.
const extrasPrefix = "extras "

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Meta       hostMeta    `json:"meta"`
	RunSeconds float64     `json:"run_seconds"`
	Runs       []runRecord `json:"runs"`
}

// realMain is main without the process exit, so the tests can drive it. Every
// resource a run acquires — temp dir, daemon, idle connections — is released
// by a defer on the way out, on success, error and signal alike.
func realMain(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload and print its result line (default: all of them)")
	seed := fs.Int64("seed", 1, "workload seed: scenario visiting orders and the request stream derive from it")
	seconds := fs.Float64("seconds", 0, "length of the timed phase (default: run_seconds of BENCHMARK.json)")
	trace := fs.String("trace", "0", "0: end-to-end metrics, tracing off; 1 or a file name: per-layer metrics, spans written to the file")
	runs := fs.Int("runs", 1, "with no -workload: runs per workload, on consecutive seeds")
	outPath := fs.String("out", "", "with no -workload: add every run to this result file (created if missing), so that two sets can be built up in alternation")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	smoke := fs.Bool("smoke", false, "tiny instances and 300 ms windows, every workload in this process (for the tests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare wants two result files"))
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	window := time.Duration(*seconds * float64(time.Second))
	if window <= 0 {
		window = time.Duration(spec.RunSeconds) * time.Second
	}
	if *smoke {
		window = 300 * time.Millisecond
	}
	base := runConfig{root: root, spec: spec, seed: *seed, window: window, trace: *trace != "0" && *trace != "", smoke: *smoke}
	spanFile := ""
	if base.trace && *trace != "1" {
		spanFile = *trace
	}

	if *workload != "" {
		cfg := base
		cfg.workload = *workload
		rec, err := runOne(ctx, &cfg, spanFile, stdout)
		if err != nil {
			return fail(err)
		}
		extras, _ := json.Marshal(rec.runExtras)
		data, _ := json.Marshal(rec.resultLine)
		fmt.Fprintf(stdout, "%s%s\n%s\n", extrasPrefix, extras, data)
		if !rec.Correct {
			return 1
		}
		return 0
	}

	// All workloads. Full-size runs go to a child process each, so that a
	// design workload's peak RSS and GC state are its own; smoke runs stay in
	// this process.
	file := resultFile{Meta: hostFingerprint(), RunSeconds: window.Seconds()}
	earlier := 0
	if *outPath != "" {
		if earlier, err = file.adopt(*outPath); err != nil {
			return fail(err)
		}
	}
	code := 0
	for _, w := range spec.Workloads {
		for r := 0; r < *runs; r++ {
			cfg := base
			cfg.workload = w.Name
			cfg.seed = *seed + int64(r)
			span := spanFile
			if span != "" {
				span = strings.TrimSuffix(span, ".json") + "." + w.Name + ".json"
			}
			var rec *runRecord
			if *smoke {
				rec, err = runOne(ctx, &cfg, span, stdout)
			} else {
				rec, err = runChild(ctx, &cfg, span, stdout, stderr)
			}
			if err != nil {
				return fail(fmt.Errorf("%s: %w", w.Name, err))
			}
			if !rec.Correct {
				code = 1
			}
			file.Runs = append(file.Runs, *rec)
		}
	}
	printSummary(stdout, spec, &file, base.trace)
	if earlier > 0 {
		fmt.Fprintf(stdout, "(the summary includes the %d runs %s already held)\n", earlier, *outPath)
	}
	if *outPath != "" {
		data, _ := json.MarshalIndent(file, "", " ")
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			return fail(err)
		}
	}
	if code != 0 {
		fmt.Fprintln(stderr, "bench: at least one operation failed its correctness check")
	}
	return code
}

// runOne runs one workload in this process and returns its record, having
// printed the human-readable report.
func runOne(ctx context.Context, cfg *runConfig, spanFile string, stdout io.Writer) (*runRecord, error) {
	def := findWorkload(cfg.workload)
	if def == nil || !cfg.spec.hasWorkload(cfg.workload) {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	// Everything a run writes stays inside the checkout.
	tmpRoot := filepath.Join(cfg.root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(tmpRoot, fmt.Sprintf("run-%d-", os.Getpid()))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	cfg.tmp = tmp
	cfg.host = newHostProbe()
	if cfg.trace {
		cfg.rec = newRecorder(cfg.workload)
	}

	res, err := def.run(ctx, cfg, def)
	if err != nil {
		return nil, err
	}
	specs, values := cfg.spec.EndToEnd, res.e2e
	if cfg.trace {
		for name, v := range res.ops {
			res.layers[name] = v
		}
		specs, values = cfg.spec.PerLayer, res.layers
	}
	metrics, err := render(specs, values)
	if err != nil {
		return nil, err
	}
	// The operation metrics take their units from their per_layer entries.
	ops, err := render(cfg.spec.opSpecs(), res.ops)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		if spanFile == "" {
			dir := filepath.Join(cfg.root, ".bench_build", "out")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
			spanFile = filepath.Join(dir, fmt.Sprintf("spans.%s.%d.json", cfg.workload, cfg.seed))
		}
		if err := cfg.rec.writeChrome(spanFile, res.solver); err != nil {
			return nil, err
		}
		res.notef("spans written to %s", spanFile)
	}

	mode := "off"
	if cfg.trace {
		mode = "on"
	}
	fmt.Fprintf(stdout, "workload %s  seed %d  trace %s  window %v  timed ops %d  attempted %d  failed %d\n",
		cfg.workload, cfg.seed, mode, cfg.window, res.samples, res.attempted, res.failed)
	for _, m := range specs {
		if cfg.trace && metrics[m.Name].Value == 0 {
			continue // a layer this workload does not exercise
		}
		fmt.Fprintf(stdout, "  %-32s %14.6g %s\n", m.Name, metrics[m.Name].Value, m.Unit)
	}
	if !cfg.trace {
		fmt.Fprintln(stdout, "  not gated (these move with the host by more than any bound; compare them in paired runs):")
		for _, name := range opNames {
			fmt.Fprintf(stdout, "  %-32s %14.6g %s\n", name, ops[name].Value, ops[name].Unit)
		}
	}
	for _, n := range res.notes {
		fmt.Fprintf(stdout, "  note: %s\n", n)
	}
	if res.invalid != "" {
		fmt.Fprintf(stdout, "  INVALID RUN: %s\n", res.invalid)
	}
	return &runRecord{
		Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		resultLine: resultLine{
			Correct:   res.failed == 0 && res.attempted > 0,
			Attempted: res.attempted,
			Failed:    res.failed,
			Metrics:   metrics,
		},
		runExtras: runExtras{Ops: ops, Invalid: res.invalid},
	}, nil
}

// runChild runs one workload in a child process of this binary and parses
// the result line it prints last and the extras line above it. The child
// inherits cancellation: ctx kills it, and it cleans up its own daemon and
// temp dir on the way out.
func runChild(ctx context.Context, cfg *runConfig, spanFile string, stdout, stderr io.Writer) (*runRecord, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if cfg.trace {
		traceArg = "1"
		if spanFile != "" {
			traceArg = spanFile
		}
	}
	cmd := exec.Command(self,
		"--workload", cfg.workload,
		"--seed", fmt.Sprint(cfg.seed),
		"--seconds", fmt.Sprint(cfg.window.Seconds()),
		"--trace", traceArg)
	cmd.Dir = cfg.root
	cmd.Stderr = stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	stopWatch := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			cmd.Process.Signal(syscall.SIGTERM) // the child's own handler releases its daemon
		case <-stopWatch:
		}
	}()
	data, _ := io.ReadAll(out)
	werr := cmd.Wait()
	close(stopWatch)
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	last := lines[len(lines)-1]
	rec := runRecord{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace}
	for _, l := range lines[:len(lines)-1] {
		if extras, ok := strings.CutPrefix(l, extrasPrefix); ok && json.Unmarshal([]byte(extras), &rec.runExtras) == nil {
			continue
		}
		fmt.Fprintln(stdout, l)
	}
	if jerr := json.Unmarshal([]byte(last), &rec.resultLine); jerr != nil {
		fmt.Fprintln(stdout, last)
		if werr != nil {
			return nil, fmt.Errorf("child run: %w", werr)
		}
		return nil, fmt.Errorf("child run printed no result line: %v", jerr)
	}
	return &rec, nil
}

// printSummary prints, per workload and metric, the sample count, median and
// quartiles over the runs just made: for untraced runs the end-to-end
// metrics and then the ungated operation metrics.
func printSummary(w io.Writer, spec *benchSpec, file *resultFile, trace bool) {
	specs := append(append([]metricSpec(nil), spec.EndToEnd...), spec.opSpecs()...)
	if trace {
		specs = spec.PerLayer
	}
	fmt.Fprintf(w, "\n%-16s %-32s %5s %14s %14s %14s  %s\n", "workload", "metric", "runs", "median", "q1", "q3", "unit")
	if n := file.invalidRuns(); n > 0 {
		fmt.Fprintf(w, "(%d invalid runs left out)\n", n)
	}
	for _, wl := range spec.Workloads {
		for _, m := range specs {
			vals := file.values(wl.Name, m.Name, trace)
			if len(vals) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(vals)
			if trace && q2 == 0 && q3 == 0 {
				continue
			}
			fmt.Fprintf(w, "%-16s %-32s %5d %14.6g %14.6g %14.6g  %s\n", wl.Name, m.Name, len(vals), q2, q1, q3, m.Unit)
		}
	}
}

// adopt takes over the runs a result file already holds, so that -out adds
// to it: two sets of runs built up in alternation see the same host. A
// missing file holds none; one from another host or run length is refused.
func (f *resultFile) adopt(path string) (int, error) {
	prev, err := readResultFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	if prev.Meta != f.Meta || prev.RunSeconds != f.RunSeconds {
		return 0, fmt.Errorf("%s holds runs from another host or run length; not adding to it", path)
	}
	f.Runs = append(prev.Runs, f.Runs...)
	return len(prev.Runs), nil
}

func (f *resultFile) invalidRuns() int {
	n := 0
	for _, r := range f.Runs {
		if r.Invalid != "" {
			n++
		}
	}
	return n
}

// values collects one metric's value, sorted, from every valid run of a
// workload: from the result line, or else from the operation metrics beside
// it.
func (f *resultFile) values(workload, metric string, trace bool) []float64 {
	var vals []float64
	for _, r := range f.Runs {
		if r.Workload != workload || r.Trace != trace || r.Invalid != "" {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			vals = append(vals, v.Value)
		} else if v, ok := r.Ops[metric]; ok {
			vals = append(vals, v.Value)
		}
	}
	sort.Float64s(vals)
	return vals
}
