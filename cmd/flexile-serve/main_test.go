package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"flexile/internal/obs/expo"
	flexscheme "flexile/internal/scheme/flexile"
	"flexile/internal/serve"
	"flexile/internal/te"

	"flexile/internal/failure"
	"flexile/internal/topo"
	"flexile/internal/tunnels"
)

// buildArtifact solves the triangle fixture and writes a serving artifact.
func buildArtifact(t *testing.T) string {
	t.Helper()
	tp := topo.Triangle()
	inst := te.NewInstance(tp, []te.Class{
		{Name: "single", Beta: 0.99, Weight: 1, Tunnels: tunnels.SingleClass(3)},
	})
	inst.Demand[0][0] = 1
	inst.Demand[0][1] = 1
	inst.LinkProbs = []float64{0.01, 0.01, 0.01}
	inst.Scenarios = failure.Enumerate(inst.LinkProbs, 0)
	opt := flexscheme.Options{Workers: 2}
	off, err := flexscheme.Offline(inst, opt)
	if err != nil {
		t.Fatalf("offline solve: %v", err)
	}
	art, err := serve.Build(inst, off, opt)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "triangle.flxa")
	if err := os.WriteFile(path, art.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// freePort reserves an ephemeral port and releases it for the daemon.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestScrapeEndToEnd is the `make scrape` CI check run against the real
// binary: build flexile-serve, start it on a loopback port, wait for
// /readyz, hammer /v1/alloc a known number of times, then scrape /metrics
// on both the serving and the -debug-listen admin ports and assert the
// page is grammar-conformant with flexile_serve_requests_total equal to
// the hammer count, the request-latency histogram fully rendered, and Go
// runtime telemetry present. A second run serves -artifact-dir over two
// artifacts and must render the same flexile_* families.
func TestScrapeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := filepath.Join(t.TempDir(), "flexile-serve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	artifact := buildArtifact(t)
	addr, adminAddr := freePort(t), freePort(t)
	cmd := exec.Command(bin,
		"-artifact", artifact,
		"-listen", addr,
		"-debug-listen", adminAddr,
		"-logjson",
		"-log-sample", "2",
		"-trace-sample", "1",
		// Overload-resilience flags, tuned loose enough that the hammer
		// below is never actually shed: this exercises parsing and the
		// admission pipeline wiring, not the shedding itself.
		"-default-deadline", "5s",
		"-tenant-rate", "1000",
		"-tenant-burst", "500",
		"-drain-timeout", "5s",
	)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Signal(syscall.SIGTERM)
		cmd.Wait()
	}()

	base := "http://" + addr
	waitReady(t, base+"/readyz")

	const hammer = 24
	// Every other request carries a sampled W3C traceparent; the server must
	// join it — echoing the trace id back — and record the trace in the
	// -debug-listen ring (checked below). The i=1 request is the first
	// failed=0 query, i.e. the one guaranteed cache miss with the full
	// recompute timeline.
	wantTrace := fmt.Sprintf("%032x", 2)
	wantParent := fmt.Sprintf("%016x", 2)
	for i := 0; i < hammer; i++ {
		url := base + "/v1/alloc?failed=0"
		if i%3 == 0 {
			url = base + "/v1/alloc?failed="
		}
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		traced := i%2 == 1
		if traced {
			req.Header.Set("traceparent", fmt.Sprintf("00-%032x-%016x-01", i+1, i+1))
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("alloc %d: status %d", i, resp.StatusCode)
		}
		if resp.Header.Get("X-Request-Id") == "" {
			t.Fatalf("alloc %d: no X-Request-Id echoed", i)
		}
		if traced {
			if tp := resp.Header.Get("traceparent"); !strings.HasPrefix(tp, fmt.Sprintf("00-%032x-", i+1)) {
				t.Fatalf("alloc %d: response traceparent %q dropped the sent trace id", i, tp)
			}
		}
	}

	// /debug/requests on the admin listener: the ring must hold the hammer
	// traffic, and the i=1 miss must surface with its joined trace id, the
	// parent span we sent, and a stage timeline that tiles its duration.
	debugURL := "http://" + adminAddr + "/debug/requests"
	var ringPage struct {
		Total  uint64 `json:"total"`
		Recent []struct {
			TraceID    string `json:"trace_id"`
			ParentSpan string `json:"parent_span"`
			Status     int    `json:"status"`
			DurNS      int64  `json:"dur_ns"`
			Spans      []struct {
				Name   string `json:"name"`
				DurNS  int64  `json:"dur_ns"`
				Nested bool   `json:"nested"`
			} `json:"spans"`
		} `json:"recent"`
	}
	func() {
		resp, err := http.Get(debugURL + "?format=json")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("debug requests json: status %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&ringPage); err != nil {
			t.Fatalf("debug requests json: %v", err)
		}
	}()
	if ringPage.Total < hammer {
		t.Errorf("trace ring total %d, want >= %d", ringPage.Total, hammer)
	}
	found := false
	for _, tr := range ringPage.Recent {
		if tr.TraceID != wantTrace {
			continue
		}
		found = true
		if tr.ParentSpan != wantParent {
			t.Errorf("joined trace parent_span %q, want %q", tr.ParentSpan, wantParent)
		}
		var tiling int64
		names := map[string]bool{}
		for _, sp := range tr.Spans {
			names[sp.Name] = true
			if !sp.Nested {
				tiling += sp.DurNS
			}
		}
		for _, want := range []string{"admit", "parse", "cache", "flight", "write", "recompute"} {
			if !names[want] {
				t.Errorf("miss trace lacks stage span %q (got %v)", want, names)
			}
		}
		if tiling > tr.DurNS || tiling < tr.DurNS/2 {
			t.Errorf("tiling spans sum %dns, want ~= request dur %dns", tiling, tr.DurNS)
		}
	}
	if !found {
		t.Errorf("trace %s not in the recent ring (%d entries)", wantTrace, len(ringPage.Recent))
	}
	for _, check := range []struct{ query, contains string }{
		{"", "flexile request traces"},
		{"", wantTrace},
		{"?format=chrome", `"traceEvents"`},
	} {
		resp, err := http.Get(debugURL + check.query)
		if err != nil {
			t.Fatal(err)
		}
		page, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("debug requests %q: status %d", check.query, resp.StatusCode)
		}
		if !strings.Contains(string(page), check.contains) {
			t.Errorf("debug requests %q missing %q", check.query, check.contains)
		}
	}

	var oneFamilies map[string]bool
	for _, scrapeURL := range []string{base + "/metrics", "http://" + adminAddr + "/metrics"} {
		text := scrape(t, scrapeURL)
		oneFamilies = flexileFamilies(text)
		want := fmt.Sprintf("flexile_serve_requests_total %d", hammer)
		if !strings.Contains(text, want) {
			t.Errorf("scrape %s missing %q", scrapeURL, want)
		}
		if n := strings.Count(text, "flexile_serve_request_duration_seconds_bucket{le="); n < 9 {
			t.Errorf("scrape %s: only %d latency bucket lines, want >= 9 (8 finite + +Inf)", scrapeURL, n)
		}
		if !strings.Contains(text, `flexile_serve_request_duration_seconds_bucket{le="+Inf"}`) {
			t.Errorf("scrape %s missing +Inf bucket", scrapeURL)
		}
		// The per-stage latency families fed by the request-trace laps.
		for _, stage := range []string{"admit", "parse", "cache", "flight", "write", "recompute"} {
			want := fmt.Sprintf(`flexile_serve_stage_duration_seconds_bucket{stage=%q,le="+Inf"}`, stage)
			if !strings.Contains(text, want) {
				t.Errorf("scrape %s missing stage histogram series %q", scrapeURL, stage)
			}
		}
		// The overload-resilience families: the quota tracking the single
		// anonymous bucket, zero sheds.
		for _, want := range []string{
			`flexile_serve_quota_tenants{artifact="triangle"} 1`,
			"flexile_serve_deadline_expired_total 0",
			"flexile_serve_quota_rejects_total 0",
		} {
			if !strings.Contains(text, want) {
				t.Errorf("scrape %s missing %q", scrapeURL, want)
			}
		}
		for _, gone := range []string{"gate_estimated_wait", "deadline_shed", "reloads_skipped", "breaker", "degraded"} {
			if strings.Contains(text, gone) {
				t.Errorf("scrape %s still carries %q", scrapeURL, gone)
			}
		}
		goFam := 0
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, "# TYPE go_") {
				goFam++
			}
		}
		if goFam < 5 {
			t.Errorf("scrape %s: only %d go_ runtime families, want >= 5", scrapeURL, goFam)
		}
	}

	// pprof is mounted on the admin listener only.
	resp, err := http.Get("http://" + adminAddr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin pprof: status %d", resp.StatusCode)
	}
	resp, err = http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof reachable on the query-facing listener")
	}
	resp, err = http.Get(base + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("/debug/requests reachable on the query-facing listener")
	}

	// Shut down and check the structured log stream: JSON lines, sampled
	// access records (half of the hammer), and the lifecycle events.
	cmd.Process.Signal(syscall.SIGTERM)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exit: %v\nstderr:\n%s", err, stderr.String())
	}
	var accessRecords int
	sawLoaded, sawServing := false, false
	for _, line := range strings.Split(strings.TrimSpace(stderr.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("stderr line is not JSON: %q (%v)", line, err)
		}
		switch rec["msg"] {
		case "request":
			if p, _ := rec["path"].(string); p == "/v1/alloc" {
				accessRecords++
				// The daemon runs -trace-sample 1, so every logged request
				// should carry its trace id.
				if tid, _ := rec["trace_id"].(string); tid == "" {
					t.Errorf("access record without trace_id: %s", line)
				}
			}
		case "artifact loaded":
			sawLoaded = true
		case "serving":
			sawServing = true
		}
	}
	if !sawLoaded || !sawServing {
		t.Errorf("missing lifecycle events (loaded=%v serving=%v):\n%s", sawLoaded, sawServing, stderr.String())
	}
	if accessRecords != hammer/2 {
		t.Errorf("-log-sample 2 produced %d access records for %d requests, want %d",
			accessRecords, hammer, hammer/2)
	}

	// The same binary over a directory of two artifacts renders the same
	// families: every per-artifact series is labelled whatever the count.
	dir := t.TempDir()
	blob, err := os.ReadFile(artifact)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alpha", "beta"} {
		if err := os.WriteFile(filepath.Join(dir, name+serve.ArtifactExt), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	addr = freePort(t)
	fleet := exec.Command(bin, "-artifact-dir", dir, "-listen", addr)
	if err := fleet.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		fleet.Process.Signal(syscall.SIGTERM)
		fleet.Wait()
	}()
	waitReady(t, "http://"+addr+"/readyz")
	twoFamilies := flexileFamilies(scrape(t, "http://"+addr+"/metrics"))
	for name := range oneFamilies {
		if !twoFamilies[name] {
			t.Errorf("family %s rendered for one artifact but not for two", name)
		}
	}
	for name := range twoFamilies {
		if !oneFamilies[name] {
			t.Errorf("family %s rendered for two artifacts but not for one", name)
		}
	}
}

// scrape GETs an exposition page and requires it to lint clean.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape %s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != expo.ContentType {
		t.Fatalf("scrape %s: Content-Type %q", url, ct)
	}
	if err := expo.Lint(page); err != nil {
		t.Fatalf("scrape %s not grammar-conformant: %v", url, err)
	}
	return string(page)
}

// flexileFamilies returns the flexile_* family names a page declares.
func flexileFamilies(page string) map[string]bool {
	out := map[string]bool{}
	for _, line := range strings.Split(page, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE flexile_"); ok {
			name, _, _ := strings.Cut(rest, " ")
			out["flexile_"+name] = true
		}
	}
	return out
}

// waitReady polls a readiness URL until it answers 200 or times out.
func waitReady(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("server never became ready at %s", url)
}
