package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"flexile/internal/chaos"
)

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

// scrapeCounters pulls the untyped/counter sample lines from a /metrics
// page into a name → value map (labelled families keep their label string).
func scrapeCounters(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLoadEndToEnd builds the real flexile-serve and flexile-load binaries,
// drives a short seeded storm at a two-artifact registry, and checks three
// contracts: the JSON summary parses and accounts every entry with zero
// errors and zero sheds, the client-side hit/shed/entry counts match the
// server's own /metrics counters, and -plan output is a pure function of
// the seed.
func TestLoadEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binaries")
	}
	bindir := t.TempDir()
	serveBin := filepath.Join(bindir, "flexile-serve")
	loadBin := filepath.Join(bindir, "flexile-load")
	for bin, pkg := range map[string]string{serveBin: "flexile/cmd/flexile-serve", loadBin: "flexile/cmd/flexile-load"} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}

	// Two triangle artifacts with different demands, as a registry directory.
	dir := t.TempDir()
	if _, err := chaos.Build(dir, "alpha", "beta"); err != nil {
		t.Fatal(err)
	}
	addr := freePort(t)
	daemon := exec.Command(serveBin, "-artifact-dir", dir, "-listen", addr)
	daemon.Stderr = io.Discard
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		daemon.Process.Signal(syscall.SIGTERM)
		daemon.Wait()
	}()
	base := "http://" + addr
	waitReady(t, base+"/readyz")

	// Plan determinism: same seed, byte-identical stream; new seed diverges.
	planArgs := []string{"-target", base, "-artifacts", "alpha,beta", "-qps", "100",
		"-duration", "2s", "-batch", "4", "-tenants", "3", "-plan"}
	planOut := func(seed string) []byte {
		t.Helper()
		out, err := exec.Command(loadBin, append([]string{"-seed", seed}, planArgs...)...).Output()
		if err != nil {
			t.Fatalf("flexile-load -plan: %v", err)
		}
		return out
	}
	p1, p2, p3 := planOut("42"), planOut("42"), planOut("43")
	if !bytes.Equal(p1, p2) {
		t.Fatal("-plan output differs across runs with the same seed")
	}
	if bytes.Equal(p1, p3) {
		t.Fatal("-plan output identical across different seeds")
	}

	// The storm proper: 2s of seeded open-loop batch traffic.
	outPath := filepath.Join(bindir, "load.json")
	storm := exec.Command(loadBin,
		"-target", base, "-artifacts", "alpha,beta",
		"-seed", "42", "-qps", "100", "-duration", "2s",
		"-batch", "4", "-tenants", "3", "-o", outPath)
	if out, err := storm.CombinedOutput(); err != nil {
		t.Fatalf("flexile-load: %v\n%s", err, out)
	}

	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("summary is not JSON: %v\n%s", err, raw)
	}
	num := func(key string) float64 {
		t.Helper()
		v, ok := m[key].(float64)
		if !ok {
			t.Fatalf("summary has no number %q: %s", key, raw)
		}
		return v
	}
	if m["target"] != base || num("seed") != 42 || num("batch") != 4 {
		t.Fatalf("summary does not name its run: %s", raw)
	}
	if num("entries") <= 0 {
		t.Fatalf("no entries recorded: %s", raw)
	}
	if num("errors") != 0 || num("shed") != 0 {
		t.Fatalf("unloaded server shed or errored: %s", raw)
	}
	if num("ok") != num("entries") {
		t.Fatalf("ok=%v of %v entries: %s", num("ok"), num("entries"), raw)
	}
	if num("p99_ms") <= 0 || num("p99_ms") < num("p50_ms") {
		t.Fatalf("latency percentiles malformed: p50=%v p99=%v", num("p50_ms"), num("p99_ms"))
	}
	if num("goodput_qps") <= 0 {
		t.Fatalf("goodput_qps = %v", num("goodput_qps"))
	}
	if _, ok := m["valid"].(bool); !ok || num("lag_p99_ms") < 0 {
		t.Fatalf("summary does not say whether the generator kept up: %s", raw)
	}

	// Cross-check against the server's own counters: every batch entry is a
	// request, hit counts agree, dedup counts agree, nothing was shed.
	counters := scrapeCounters(t, base+"/metrics")
	for metric, want := range map[string]float64{
		"flexile_serve_requests_total":       num("entries"),
		"flexile_serve_batch_requests_total": num("requests"),
		"flexile_serve_batch_entries_total":  num("entries"),
		"flexile_serve_batch_deduped_total":  num("dedup"),
		"flexile_serve_cache_hits_total":     num("hits"),
		"flexile_serve_deadline_shed_total":  0,
		"flexile_serve_quota_rejects_total":  0,
	} {
		if got, ok := counters[metric]; !ok || got != want {
			t.Errorf("%s = %v (present=%v), want %v", metric, got, ok, want)
		}
	}
}
