package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

func testSpec(t *testing.T) (string, *benchSpec) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return root, spec
}

func names(specs []metricSpec) []string {
	out := make([]string, len(specs))
	for i, m := range specs {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

// The program and BENCHMARK.json must name the same workloads and metrics.
func TestMetricNamesMatchSpec(t *testing.T) {
	_, spec := testSpec(t)

	want := append([]string(nil), layerNames...)
	sort.Strings(want)
	if got := names(spec.PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer of BENCHMARK.json and layerNames differ:\n json: %v\n code: %v", got, want)
	}
	in := opInput{latMs: []float64{1}, work: 1, window: time.Second, cpu: time.Millisecond, sent: 1, inLimit: 1}
	keys := func(m map[string]float64) []string {
		var out []string
		for n := range m {
			out = append(out, n)
		}
		sort.Strings(out)
		return out
	}
	if got := names(spec.EndToEnd); !reflect.DeepEqual(got, keys(e2eMetrics(in))) {
		t.Errorf("end_to_end of BENCHMARK.json and e2eMetrics differ:\n json: %v\n code: %v", got, keys(e2eMetrics(in)))
	}
	if got := names(spec.opSpecs()); !reflect.DeepEqual(got, keys(opMetrics(in))) {
		t.Errorf("the operation metrics under per_layer and opMetrics differ:\n json: %v\n code: %v", got, keys(opMetrics(in)))
	}
	if len(spec.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloadDefs))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadDefs[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloadDefs[i].name)
		}
	}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if m.Unit == "" || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %q: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{7, 0}, {39, 0}, {40, 75}, {60, 75}, {99, 75}, {100, 90}, {545, 90}, {1000, 99}, {10000, 99.9}, {130000, 99.9}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// The definition, checked directly: at least ten samples lie beyond the
	// chosen percentile, and the next ladder step would leave fewer.
	for n := 40; n < 3000; n += 37 {
		p := supportedTail(n)
		if beyond := n - rankOf(p, n); beyond < 10 {
			t.Fatalf("n=%d: p%g leaves only %d samples beyond", n, p, beyond)
		}
	}
	// op_tail_ms is taken at the percentile the helper picks; a run with too
	// few operations for any reports its upper quartile and says so.
	lat := make([]float64, 1000)
	for i := range lat {
		lat[i] = float64(i + 1)
	}
	if m := opMetrics(opInput{latMs: lat}); m["op_tail_pct"] != 99 || m["op_tail_ms"] != 990 || m["op_p50_ms"] != 500 {
		t.Errorf("1000 samples: tail p%g = %g, p50 = %g, want p99 = 990, p50 = 500", m["op_tail_pct"], m["op_tail_ms"], m["op_p50_ms"])
	}
	if m := opMetrics(opInput{latMs: lat[:8]}); m["op_tail_pct"] != 75 || m["op_tail_ms"] != 6 {
		t.Errorf("8 samples: tail p%g = %g, want p75 = 6", m["op_tail_pct"], m["op_tail_ms"])
	}
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(s, 50); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := percentile(s, 99); got != 10 {
		t.Errorf("p99 = %v, want 10", got)
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which the
// acceptance rule uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

// Same seed → same scenario order, same design presentation and same plan;
// another seed → different ones.
func TestSeedDeterminism(t *testing.T) {
	if !reflect.DeepEqual(seededOrder(7, 0, 20), seededOrder(7, 0, 20)) {
		t.Error("seededOrder is not a function of its seed")
	}
	if reflect.DeepEqual(seededOrder(7, 0, 20), seededOrder(8, 0, 20)) {
		t.Error("seededOrder ignores its seed")
	}
	if reflect.DeepEqual(seededOrder(7, 0, 20), seededOrder(7, 1, 20)) {
		t.Error("seededOrder ignores its stream")
	}

	env := func(seed int64) *serveEnv {
		e := &serveEnv{cfg: &runConfig{seed: seed, smoke: true}}
		for _, s := range []artifactSpec{ibm20, b420} {
			inst, err := s.inst.build(true)
			if err != nil {
				t.Fatal(err)
			}
			e.arts = append(e.arts, &artifact{name: s.name, inst: inst})
		}
		return e
	}
	plan := func(seed int64) []openRequest {
		reqs, err := buildOpenPlan(env(seed), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if len(reqs) < 100 {
			t.Fatalf("plan has only %d requests", len(reqs))
		}
		return reqs
	}
	a, b, c := plan(3), plan(3), plan(4)
	if !reflect.DeepEqual(a, b) {
		t.Error("the open-loop plan is not a function of the seed")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("the open-loop plan ignores the seed")
	}
	for i := 1; i < len(a); i++ {
		if a[i].due < a[i-1].due {
			t.Fatalf("plan not in due order at %d", i)
		}
	}

	inst, err := designSpecs["design-twoclass"].build(false)
	if err != nil {
		t.Fatal(err)
	}
	p1, p2, p3 := permuted(inst, 5, 2), permuted(inst, 5, 2), permuted(inst, 6, 2)
	if !reflect.DeepEqual(p1.Scenarios, p2.Scenarios) {
		t.Error("permuted is not a function of seed and op")
	}
	if reflect.DeepEqual(p1.Scenarios, p3.Scenarios) {
		t.Error("permuted ignores the seed")
	}
	if reflect.DeepEqual(p1.Scenarios, inst.Scenarios) {
		t.Error("permuted left the scenarios in place")
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	steady := []float64{99, 100, 100, 101, 102}
	noisy := []float64{70, 90, 100, 115, 140}
	for _, c := range []struct {
		m    metricSpec
		a, b []float64
		want string
	}{
		{lower, steady, []float64{100, 101, 101, 102, 103}, "same"},
		{lower, steady, []float64{111, 112, 112, 113, 114}, "worse"},
		{lower, steady, []float64{89, 90, 90, 91, 92}, "better"},
		{higher, steady, []float64{88, 89, 89, 90, 91}, "worse"},
		{higher, steady, []float64{111, 112, 112, 113, 114}, "better"},
		{lower, noisy, []float64{80, 95, 104, 110, 130}, "unresolved"},
		{lower, noisy, []float64{50, 55, 60, 65, 69}, "better"},
		// A spread wider than the bound leaves even a 20 % worse median
		// unresolved: it cannot be told from the baseline's own scatter.
		{lower, noisy, []float64{100, 110, 120, 130, 150}, "unresolved"},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}

	_, spec := testSpec(t)
	// file is a result file whose gated metrics are worse by the factor
	// scale and whose operation metrics by the factor opScale.
	file := func(scale, opScale float64, failed int) *resultFile {
		f := &resultFile{Meta: hostFingerprint(), RunSeconds: 10}
		fill := func(specs []metricSpec, scale float64, r int) map[string]metricValue {
			out := make(map[string]metricValue)
			for _, m := range specs {
				v := 100 + float64(r)
				if m.Better == "lower" {
					v *= scale
				} else {
					v /= scale
				}
				out[m.Name] = metricValue{Value: v, Unit: m.Unit}
			}
			return out
		}
		for _, w := range spec.Workloads {
			for r := 0; r < 5; r++ {
				rec := runRecord{Workload: w.Name, Seed: int64(r)}
				rec.Attempted, rec.Failed = 100, failed
				rec.Metrics = fill(spec.EndToEnd, scale, r)
				rec.Ops = fill(spec.opSpecs(), opScale, r)
				f.Runs = append(f.Runs, rec)
			}
		}
		return f
	}
	var out bytes.Buffer
	if code := compareResults(spec, file(1, 1, 0), file(1.01, 1.01, 0), &out, io.Discard); code != 0 {
		t.Errorf("a 1%% difference compared as a regression:\n%s", out.String())
	}
	rows := strings.Count(out.String(), "\n") - 1 // less the header
	if want := len(spec.Workloads) * (len(spec.EndToEnd) + len(opNames) - 1); rows != want {
		t.Errorf("compare printed %d rows, want one per workload × (end-to-end metric + compared operation metric) = %d", rows, want)
	}
	if code := compareResults(spec, file(1, 1, 0), file(1.3, 1, 0), io.Discard, io.Discard); code == 0 {
		t.Error("end-to-end metrics 30% worse did not fail the comparison")
	}
	out.Reset()
	if code := compareResults(spec, file(1, 1, 0), file(1, 1.3, 0), &out, io.Discard); code != 0 || !strings.Contains(out.String(), "worse") {
		t.Errorf("operation metrics 30%% worse must read worse and not fail the comparison (they are not gated): exit %d\n%s", code, out.String())
	}
	if code := compareResults(spec, file(1, 1, 0), file(1, 1, 1), io.Discard, io.Discard); code == 0 {
		t.Error("a rise in failed operations did not fail the comparison")
	}
	// A run marked invalid (the generator stalled) is left out, whatever it
	// read.
	stalled := file(1, 1, 0)
	bad := file(5, 5, 0).Runs[0]
	bad.Invalid = "generator lag"
	stalled.Runs = append(stalled.Runs, bad)
	out.Reset()
	if code := compareResults(spec, file(1, 1, 0), stalled, &out, io.Discard); code != 0 || !strings.Contains(out.String(), "invalid runs left out: 0 of a, 1 of b") {
		t.Errorf("an invalid run was compared: exit %d\n%s", code, out.String())
	}
	// -out adds to the file it names, unless that file is from elsewhere.
	path := filepath.Join(t.TempDir(), "set.json")
	first := file(1, 1, 0)
	if n, err := first.adopt(path); n != 0 || err != nil {
		t.Errorf("adopting a missing file: %d runs, %v", n, err)
	}
	data, _ := json.Marshal(first)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	second := file(1, 1, 0)
	if n, err := second.adopt(path); n != len(first.Runs) || err != nil || len(second.Runs) != 2*len(first.Runs) {
		t.Errorf("adopting a file of %d runs: %d adopted, %d held, %v", len(first.Runs), n, len(second.Runs), err)
	}
	elsewhere := file(1, 1, 0)
	elsewhere.RunSeconds = 5
	if _, err := elsewhere.adopt(path); err == nil {
		t.Error("runs of another length were added to a result file")
	}
	other := file(1, 1, 0)
	other.Meta.NProc++
	var errOut bytes.Buffer
	if code := compareResults(spec, file(1, 1, 0), other, io.Discard, &errOut); code == 0 || !strings.Contains(errOut.String(), "fingerprints differ") {
		t.Errorf("results from different hosts were compared: %q", errOut.String())
	}
}

// leftovers lists what a run of this process must not leave behind: temp
// dirs it created and flexile-serve children still alive.
func leftovers(t *testing.T, root string) []string {
	t.Helper()
	var found []string
	dirs, _ := filepath.Glob(filepath.Join(root, ".bench_build", "tmp", fmt.Sprintf("run-%d-*", os.Getpid())))
	found = append(found, dirs...)
	procs, _ := filepath.Glob("/proc/[0-9]*/stat")
	for _, p := range procs {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		s := string(data)
		i, j := strings.IndexByte(s, '('), strings.LastIndexByte(s, ')')
		if i < 0 || j < i || !strings.HasPrefix(s[i+1:j], "flexile-serve") {
			continue
		}
		f := strings.Fields(s[j+1:])
		if len(f) > 1 && f[0] != "Z" && f[1] == strconv.Itoa(os.Getpid()) {
			found = append(found, "process "+p)
		}
	}
	return found
}

// A -smoke pass of all seven workloads, untraced and traced: every metric
// BENCHMARK.json names is reported with its unit, and nothing else is.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	root, spec := testSpec(t)
	for _, mode := range []struct {
		trace string
		specs []metricSpec
	}{{"0", spec.EndToEnd}, {"1", spec.PerLayer}} {
		outFile := filepath.Join(t.TempDir(), "smoke.json")
		var stdout, stderr bytes.Buffer
		if code := realMain(context.Background(), []string{"-smoke", "-trace", mode.trace, "-out", outFile}, &stdout, &stderr); code != 0 {
			t.Fatalf("smoke run (trace %s) exited %d\n%s\n%s", mode.trace, code, stdout.String(), stderr.String())
		}
		data, err := os.ReadFile(outFile)
		if err != nil {
			t.Fatal(err)
		}
		var file resultFile
		if err := json.Unmarshal(data, &file); err != nil {
			t.Fatal(err)
		}
		if len(file.Runs) != len(spec.Workloads) {
			t.Fatalf("trace %s: %d runs, want %d", mode.trace, len(file.Runs), len(spec.Workloads))
		}
		for i, run := range file.Runs {
			if run.Workload != spec.Workloads[i].Name || !run.Correct || run.Attempted < 1 || run.Failed != 0 {
				t.Errorf("trace %s run %d: %s correct=%v attempted=%d failed=%d", mode.trace, i, run.Workload, run.Correct, run.Attempted, run.Failed)
			}
			if len(run.Metrics) != len(mode.specs) {
				t.Errorf("%s trace %s: %d metrics, want %d", run.Workload, mode.trace, len(run.Metrics), len(mode.specs))
			}
			for _, m := range mode.specs {
				got, ok := run.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace %s: metric %s = %+v (present %v), want unit %q", run.Workload, mode.trace, m.Name, got, ok, m.Unit)
				}
				// within_limit_frac may honestly read 0 when the host (or the
				// race detector) makes every operation late; the rest are
				// times, rates and sizes.
				if mode.trace == "0" && got.Value <= 0 && m.Name != "within_limit_frac" {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", run.Workload, m.Name, got.Value)
				}
			}
			if mode.trace == "0" && !strings.Contains(stdout.String(), "workload "+run.Workload) {
				t.Errorf("no human-readable report for %s", run.Workload)
			}
		}
		if mode.trace == "1" {
			spans, _ := filepath.Glob(filepath.Join(root, ".bench_build", "out", "spans.*.json"))
			if len(spans) < len(spec.Workloads) {
				t.Errorf("traced smoke run left %d span files, want one per workload", len(spans))
			}
		}
	}
	if l := leftovers(t, root); len(l) > 0 {
		t.Errorf("smoke runs left behind: %v", l)
	}
}

// A planted fault must surface as failed operations and a non-zero exit,
// and the failed run must still release its daemon and temp dir.
func TestFaultsAreCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	root, _ := testSpec(t)
	t.Cleanup(func() { injectFault = "" })
	for _, c := range []struct{ workload, inject string }{
		{"serve-hit", "corrupt-ref"},
		{"design-lp", "worse-loss"},
	} {
		var stdout, stderr bytes.Buffer
		injectFault = c.inject
		code := realMain(context.Background(), []string{"-smoke", "-workload", c.workload}, &stdout, &stderr)
		if code == 0 {
			t.Errorf("%s with %s exited 0\n%s", c.workload, c.inject, stdout.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("%s with %s: no result line: %v\n%s\n%s", c.workload, c.inject, err, stdout.String(), stderr.String())
		}
		if line.Correct || line.Failed == 0 || line.Failed > line.Attempted {
			t.Errorf("%s with %s: correct=%v failed=%d of %d, want failures", c.workload, c.inject, line.Correct, line.Failed, line.Attempted)
		}
		if l := leftovers(t, root); len(l) > 0 {
			t.Errorf("%s with %s left behind: %v", c.workload, c.inject, l)
		}
	}
	// Without the fault the same runs pass, so the failures above are the
	// oracle's doing.
	injectFault = ""
	var stdout bytes.Buffer
	if code := realMain(context.Background(), []string{"-smoke", "-workload", "design-lp"}, &stdout, io.Discard); code != 0 {
		t.Errorf("clean design-lp smoke run exited %d\n%s", code, stdout.String())
	}
}

// A run that is cancelled mid-way (the signal path) must also clean up.
func TestCancelledRunCleansUp(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	root, _ := testSpec(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(1500 * time.Millisecond) // inside set-up or the timed window of a full-size run
		cancel()
	}()
	var stdout, stderr bytes.Buffer
	if code := realMain(ctx, []string{"-workload", "serve-hit", "-seconds", "30"}, &stdout, &stderr); code == 0 {
		t.Errorf("a cancelled run exited 0\n%s", stdout.String())
	}
	if l := leftovers(t, root); len(l) > 0 {
		t.Errorf("cancelled run left behind: %v", l)
	}
}
