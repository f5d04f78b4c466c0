package expo

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flexile/internal/obs"
)

// update rewrites the golden file instead of comparing against it:
//
//	go test ./internal/obs/expo -run Golden -update
var update = flag.Bool("update", false, "rewrite the golden file under testdata/")

// fixedMetrics builds a fully deterministic SolveMetrics with every counter
// distinct (so a transposed field shows up in the golden diff) and a
// hand-built latency snapshot.
func fixedMetrics() obs.SolveMetrics {
	var m obs.SolveMetrics
	m.LP = obs.LPMetrics{
		Solves: 101, Errors: 2, Optimal: 90, Infeasible: 5, Unbounded: 3,
		IterLimit: 1, Phase1Pivots: 1000, Phase2Pivots: 2000, BoundFlips: 30,
		DegeneratePivots: 40, Refactorizations: 7, BlandActivations: 1,
		SingularRestarts: 1, WarmStarts: 70, WarmStartRejected: 4,
		PriceRefreshes: 600, SolveNanos: 0,
	}
	m.MIP = obs.MIPMetrics{Solves: 11, Nodes: 500, PrunedNodes: 200, IncumbentUpdates: 9, HeuristicCalls: 12}
	m.Decomp = obs.DecompMetrics{
		Solves: 1, Iterations: 6, ScenarioSolves: 60, ScenarioRetries: 2,
		ScenarioSkips: 1, ScenLossFallbacks: 1, MasterSolves: 6, MasterFailures: 0,
		CutsGenerated: 55, CutsDeduped: 5, SharedCutRows: 10,
	}
	m.Pool = obs.PoolMetrics{Launches: 4, Items: 64, MaxWorkers: 8, BusyNanos: 2_500_000_000}
	m.Serve = obs.ServeMetrics{
		Requests: 1000, BadRequests: 7, CacheHits: 800, CacheMisses: 200,
		Recomputes: 150, FlightShared: 50, Reloads: 3, ReloadErrors: 1, GateWaits: 20,
		QuotaRejects: 13, DeadlineShed: 17, DeadlineExpired: 6, RecomputeErrors: 4,
		Degraded: 3, BreakerTrips: 2, BreakerRejects: 8, ReloadsSkipped: 5,
		BatchRequests: 21, BatchEntries: 340, BatchDeduped: 19,
	}
	m.Latency.ServeRequest = fixedHist()
	m.Latency.QueueWait = fixedHist()
	return m
}

// fixedHist returns a deterministic snapshot spanning the first buckets and
// the overflow bucket.
func fixedHist() obs.HistSnapshot {
	n := len(obs.HistBounds()) + 1
	buckets := make([]uint64, n)
	buckets[0] = 10
	buckets[1] = 20
	buckets[5] = 5
	buckets[n-1] = 2 // overflow
	return obs.HistSnapshot{Count: 37, Sum: 123456, Buckets: buckets}
}

func TestEncodeGolden(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	EncodeSolveMetrics(e, fixedMetrics())
	e.Gauge("flexile_serve_ready", "Whether the server is ready.", 1)
	e.Gauge("flexile_artifact_info", "Artifact identity.", 1,
		Label{"version", "1"}, Label{"checksum", "abc123"},
		Label{"path", `C:\artifacts\"prod"` + "\nv2"}) // exercises every escape
	if err := e.Err(); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := Lint(buf.Bytes()); err != nil {
		t.Fatalf("rendered golden page does not lint: %v", err)
	}
	// The benchmark harness scrapes these two by name (bench/serveprobes.go);
	// an -update must not be able to drop them.
	for _, sample := range []string{"\nflexile_lp_warm_starts_total 70\n", "\nflexile_lp_warm_start_rejected_total 4\n"} {
		if !strings.Contains(buf.String(), sample) {
			t.Errorf("page lacks %q", strings.TrimSpace(sample))
		}
	}

	path := filepath.Join("testdata", "solve_metrics.prom")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, buf.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (generate with -update): %v", path, err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		gotLines := strings.Split(buf.String(), "\n")
		wantLines := strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("golden mismatch at line %d:\n got: %q\nwant: %q", i+1, g, w)
			}
		}
		t.Fatal("golden mismatch (length only)")
	}
}

// TestLabelEscapeRoundTrip renders label values containing every character
// the grammar escapes and checks the linter's parser decodes them back to
// the originals.
func TestLabelEscapeRoundTrip(t *testing.T) {
	nasty := []string{
		`back\slash`,
		"new\nline",
		`quo"te`,
		`all\three:"a"` + "\n" + `\\done`,
		"", // empty value
	}
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	labels := make([][]Label, len(nasty))
	values := make([]float64, len(nasty))
	for i, v := range nasty {
		labels[i] = []Label{{"v", v}}
		values[i] = float64(i)
	}
	e.CounterVec("nasty_total", "escape torture", values, labels)
	if err := e.Err(); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := Lint(buf.Bytes()); err != nil {
		t.Fatalf("lint: %v\npage:\n%s", err, buf.String())
	}
	var decoded []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		_, ls, _, err := parseSample(line)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if len(ls) != 1 || ls[0].Name != "v" {
			t.Fatalf("labels of %q = %+v", line, ls)
		}
		decoded = append(decoded, ls[0].Value)
	}
	if len(decoded) != len(nasty) {
		t.Fatalf("decoded %d values, want %d", len(decoded), len(nasty))
	}
	for i, v := range nasty {
		if decoded[i] != v {
			t.Fatalf("round trip %d: %q -> %q", i, v, decoded[i])
		}
	}
}

func TestHistogramExposition(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.Histogram("x_seconds", "help", fixedHist(), 1e-9)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	page := buf.String()
	if err := Lint(buf.Bytes()); err != nil {
		t.Fatalf("lint: %v\n%s", err, page)
	}
	// Every finite bound renders even when its bucket is empty, so a live
	// scrape always shows the full scheme (>= 8 buckets plus +Inf).
	finite := strings.Count(page, "x_seconds_bucket{le=")
	wantFinite := len(obs.HistBounds()) + 1 // 27 finite + the +Inf line
	if finite != wantFinite {
		t.Fatalf("rendered %d bucket lines, want %d\n%s", finite, wantFinite, page)
	}
	if !strings.Contains(page, `x_seconds_bucket{le="+Inf"} 37`) {
		t.Fatalf("missing +Inf bucket:\n%s", page)
	}
	if !strings.Contains(page, "x_seconds_count 37") {
		t.Fatalf("missing _count:\n%s", page)
	}
	// First bound 256ns scaled to seconds.
	if !strings.Contains(page, `x_seconds_bucket{le="2.56e-07"} 10`) {
		t.Fatalf("missing scaled first bucket:\n%s", page)
	}
	// _sum scaled: 123456ns = 0.000123456s.
	if !strings.Contains(page, "x_seconds_sum 0.000123456") {
		t.Fatalf("missing scaled sum:\n%s", page)
	}
}

func TestHistogramEmptySnapshotStillConforms(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.Histogram("empty_seconds", "never observed", obs.HistSnapshot{}, 1e-9)
	if err := e.Err(); err != nil {
		t.Fatal(err)
	}
	if err := Lint(buf.Bytes()); err != nil {
		t.Fatalf("empty histogram does not lint: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), `empty_seconds_bucket{le="+Inf"} 0`) {
		t.Fatalf("missing +Inf bucket:\n%s", buf.String())
	}
}

func TestEncoderRejectsBadNames(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	e.Counter("0bad", "leading digit", 1)
	if e.Err() == nil {
		t.Fatal("bad metric name accepted")
	}
	e = NewEncoder(&buf)
	e.Gauge("ok", "h", 1, Label{"0bad", "v"})
	if e.Err() == nil {
		t.Fatal("bad label name accepted")
	}
	e = NewEncoder(&buf)
	e.Counter("twice_total", "h", 1)
	e.Counter("twice_total", "h", 2)
	if e.Err() == nil {
		t.Fatal("duplicate family accepted")
	}
}

func TestFormatValue(t *testing.T) {
	for _, c := range []struct {
		v    float64
		want string
	}{
		{0, "0"}, {1, "1"}, {1.5, "1.5"},
		{math.Inf(1), "+Inf"}, {math.Inf(-1), "-Inf"},
		{2.56e-07, "2.56e-07"},
	} {
		if got := formatValue(c.v); got != c.want {
			t.Errorf("formatValue(%v) = %q, want %q", c.v, got, c.want)
		}
	}
	if got := formatValue(math.NaN()); got != "NaN" {
		t.Errorf("formatValue(NaN) = %q", got)
	}
}

// TestLintRejects feeds malformed pages and requires a diagnostic for each.
func TestLintRejects(t *testing.T) {
	cases := map[string]string{
		"bad-metric-name":   "9lives 1\n",
		"bad-metric-char":   "foo-bar 1\n",
		"bad-label-name":    `foo{9x="v"} 1` + "\n",
		"unquoted-label":    `foo{x=v} 1` + "\n",
		"bad-escape":        `foo{x="\t"} 1` + "\n",
		"unterminated":      `foo{x="v} 1` + "\n",
		"missing-value":     "foo\n",
		"bad-value":         "foo hello\n",
		"duplicate-sample":  "foo 1\nfoo 2\n",
		"duplicate-type":    "# TYPE foo counter\n# TYPE foo gauge\n",
		"unknown-type":      "# TYPE foo widget\n",
		"le-not-monotone":   "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n",
		"cum-decreases":     "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 3\nh_count 5\n",
		"missing-inf":       "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"missing-sum":       "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
		"missing-count":     "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\n",
		"torn-count":        "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 2\n",
		"bucket-without-le": "# TYPE h histogram\nh_bucket 1\nh_sum 1\nh_count 1\n",
		"bad-le":            "# TYPE h histogram\nh_bucket{le=\"abc\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
	}
	for name, page := range cases {
		if err := Lint([]byte(page)); err == nil {
			t.Errorf("%s: lint accepted malformed page:\n%s", name, page)
		}
	}
}

func TestLintAcceptsValidConstructs(t *testing.T) {
	pages := map[string]string{
		"bare-comment":  "# just a comment\n",
		"nan-sum":       "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 0\nh_sum NaN\nh_count 0\n",
		"neg-inf-value": "foo -Inf\n",
		"labeled-hist": "# TYPE h histogram\n" +
			"h_bucket{s=\"a\",le=\"1\"} 1\nh_bucket{s=\"a\",le=\"+Inf\"} 1\nh_sum{s=\"a\"} 1\nh_count{s=\"a\"} 1\n" +
			"h_bucket{s=\"b\",le=\"1\"} 2\nh_bucket{s=\"b\",le=\"+Inf\"} 2\nh_sum{s=\"b\"} 2\nh_count{s=\"b\"} 2\n",
		"timestamped": "foo 1 1700000000000\n",
	}
	for name, page := range pages {
		if err := Lint([]byte(page)); err != nil {
			t.Errorf("%s: lint rejected valid page: %v\n%s", name, err, page)
		}
	}
}

func TestRuntimeMetrics(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	EncodeRuntime(e)
	if err := e.Err(); err != nil {
		t.Fatalf("encode runtime: %v", err)
	}
	if err := Lint(buf.Bytes()); err != nil {
		t.Fatalf("runtime page does not lint: %v", err)
	}
	families := make(map[string]bool)
	for _, line := range strings.Split(buf.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families[strings.Fields(name)[0]] = true
		}
	}
	goCount := 0
	for f := range families {
		if strings.HasPrefix(f, "go_") {
			goCount++
		}
	}
	if goCount < 5 {
		t.Fatalf("only %d go_ families, want >= 5:\n%v", goCount, families)
	}
	for _, want := range []string{"go_sched_goroutines", "go_memory_classes_heap_objects_bytes"} {
		if !families[want] {
			t.Fatalf("missing expected runtime family %s in %v", want, families)
		}
	}
}

func TestRuntimeName(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{"/sched/goroutines:goroutines", "go_sched_goroutines"},
		{"/memory/classes/heap/objects:bytes", "go_memory_classes_heap_objects_bytes"},
		{"/gc/cycles/total:gc-cycles", "go_gc_cycles_total_gc_cycles"},
		{"/sched/latencies:seconds", "go_sched_latencies_seconds"},
	} {
		if got := runtimeName(c.in); got != c.want {
			t.Errorf("runtimeName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestWritePage(t *testing.T) {
	col := obs.New()
	col.AddServe(obs.ServeMetrics{Requests: 5, CacheHits: 3})
	col.ObserveLatency(obs.LatServeRequest, 2*time.Millisecond)
	var buf bytes.Buffer
	extraRan := false
	if err := WritePage(&buf, col, func(e *Encoder) {
		extraRan = true
		e.Gauge("flexile_serve_ready", "ready flag", 1)
	}); err != nil {
		t.Fatalf("WritePage: %v", err)
	}
	if !extraRan {
		t.Fatal("extra hook did not run")
	}
	page := buf.String()
	if err := Lint(buf.Bytes()); err != nil {
		t.Fatalf("page does not lint: %v", err)
	}
	for _, want := range []string{
		"flexile_serve_requests_total 5",
		"flexile_serve_cache_hits_total 3",
		"flexile_serve_ready 1",
		"flexile_serve_request_duration_seconds_count 1",
		`flexile_serve_request_duration_seconds_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(page, want) {
			t.Fatalf("page missing %q:\n%s", want, page)
		}
	}
	// Nil collector: all-zero counters, still a conformant page.
	buf.Reset()
	if err := WritePage(&buf, nil, nil); err != nil {
		t.Fatalf("WritePage(nil): %v", err)
	}
	if err := Lint(buf.Bytes()); err != nil {
		t.Fatalf("nil-collector page does not lint: %v", err)
	}
	if !strings.Contains(buf.String(), "flexile_serve_requests_total 0") {
		t.Fatal("nil-collector page missing zero counters")
	}
}
