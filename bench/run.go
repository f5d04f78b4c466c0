package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"flexile/internal/obs"
)

// runConfig is everything one workload run needs.
type runConfig struct {
	root     string
	spec     *benchSpec
	workload string
	seed     int64
	window   time.Duration // how long the timed phase measures
	trace    bool
	smoke    bool   // tiny instances and windows, for the tests
	tmp      string // per-run temp dir inside the checkout, removed by the caller
	rec      *recorder
	host     *hostProbe
}

// injectFault is set only by the tests: "corrupt-ref" flips a byte of one
// reference body and "worse-loss" worsens one design's PercLoss, faults the
// oracles must turn into failed operations.
var injectFault string

// runResult is what a workload run reports.
type runResult struct {
	attempted int // units of work attempted in the timed phase
	failed    int // units whose output failed its oracle
	e2e       map[string]float64
	ops       map[string]float64 // the ungated operation metrics (opNames), printed by every run
	layers    map[string]float64 // filled only by a traced run; includes ops
	samples   int                // timed operations behind op_p50_ms
	notes     []string           // caveats printed with the human-readable report
	invalid   string             // why the run measured the harness rather than the program, if it did
	solver    *obs.Tracer        // the program's own solver timeline, when a traced run captured one
}

func (r *runResult) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloadDef ties a workload name to the code that runs it and to the
// latency limit within_limit_frac is judged against. serve-open's limit is
// the one the issue fixed (500 ms from the due time). The closed loops have
// no limit of their own, and every workload must report every end-to-end
// metric, so theirs is derived: four times the median op_p50_ms of the
// calibration record in README.md, rounded to one significant figure — far
// enough out that the host's own swings (up to 2.4× on record) do not reach
// it, so the metric moves only when the program does.
type workloadDef struct {
	name    string
	limitMs float64
	run     func(ctx context.Context, cfg *runConfig, def *workloadDef) (*runResult, error)
}

var workloadDefs = []*workloadDef{
	{name: "design-lp", limitMs: 4000, run: runDesign},
	{name: "design-twoclass", limitMs: 4000, run: runDesign},
	{name: "design-wide", limitMs: 5000, run: runDesign},
	{name: "serve-miss", limitMs: 600, run: runServeClosed},
	{name: "serve-hit", limitMs: 0.6, run: runServeClosed},
	{name: "serve-batch", limitMs: 2, run: runServeClosed},
	{name: "serve-open", limitMs: 500, run: runServeOpen},
}

func findWorkload(name string) *workloadDef {
	for _, d := range workloadDefs {
		if d.name == name {
			return d
		}
	}
	return nil
}

// opInput is the raw material of a run's metrics, identical in shape for
// every workload so that every workload reports every metric.
type opInput struct {
	setup     time.Duration // scaled to the reference host speed
	setupWall time.Duration // as the clock read it
	hostMs    float64       // median reading of the host-speed reference over the run
	latMs     []float64     // latency of every completed operation
	work      int           // units of work answered correctly (designs, or queries: a batch counts each entry)
	window    time.Duration // wall-clock of the timed phase
	cpu       time.Duration // CPU the program under test spent in the timed phase
	rssMB     float64
	sent      int // operations sent
	inLimit   int // operations answered correctly within the workload's limit
}

// e2eMetrics are the gated metrics: the ones that repeat on a host whose
// speed does not (setup_s because it is scaled by the host-speed reference,
// see host.go).
func e2eMetrics(in opInput) map[string]float64 {
	return map[string]float64{
		"setup_s":     in.setup.Seconds(),
		"peak_rss_mb": in.rssMB,
		// A run in which nothing was sent still reports the metric (the
		// result line then says correct: false), so the divisor is floored.
		"within_limit_frac": float64(in.inLimit) / float64(max(in.sent, 1)),
	}
}

// opNames are the time-based operation metrics, as measured, and the two
// host readings that put them in context. The former were specified as
// end-to-end metrics and demoted under the issue's rule — between two sets
// of runs of the same code on this host they move by 15–50 % — so they carry
// no bound: every run prints them, a traced run reports them among the
// per-layer metrics, and -compare shows them without gating on them.
var opNames = []string{"op_p50_ms", "op_tail_ms", "op_tail_pct", "work_per_s", "cpu_ms_per_op",
	"host.ref_kernel_ms", "host.setup_wall_s"}

func opMetrics(in opInput) map[string]float64 {
	lat := sortedCopy(in.latMs)
	// The tail is the highest percentile with at least ten samples beyond
	// it. A design run has too few operations to support any; its upper
	// quartile stands in, and op_tail_pct says which statistic was taken.
	pct := supportedTail(len(lat))
	if pct == 0 {
		pct = 75
	}
	return map[string]float64{
		"op_p50_ms":     percentile(lat, 50),
		"op_tail_ms":    percentile(lat, pct),
		"op_tail_pct":   pct,
		"work_per_s":    float64(in.work) / max(in.window.Seconds(), 1e-9),
		"cpu_ms_per_op": ms(in.cpu) / float64(max(in.work, 1)),

		"host.ref_kernel_ms": in.hostMs,
		"host.setup_wall_s":  in.setupWall.Seconds(),
	}
}

// seededOrder returns a permutation of 0..n-1 drawn from seed and stream;
// distinct streams of one seed are independent.
func seededOrder(seed, stream int64, n int) []int {
	r := rand.New(rand.NewSource(seed*1000003 + stream))
	return r.Perm(n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
