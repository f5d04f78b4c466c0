package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"

	"flexile/internal/obs"
	flexscheme "flexile/internal/scheme/flexile"
)

// TestMissLPSolvesReachServerCollector: the LP solves beneath a cache miss
// count in the collector the Server was configured with, and in its
// artifact's, even when no process-global collector is installed.
func TestMissLPSolvesReachServerCollector(t *testing.T) {
	if obs.Global() != nil {
		t.Fatal("a process-global collector is installed; this test needs none")
	}
	path, _, _, _ := writeArtifact(t)
	collector := obs.New()
	srv, err := New(path, Config{CacheSize: 0, Workers: 1, Obs: collector})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	get(t, ts.URL+"/v1/alloc?failed=", "miss")
	m := collector.Snapshot()
	if m.Serve.Recomputes != 1 || m.LP.Solves == 0 || m.LP.Pivots == 0 {
		t.Fatalf("after one miss: %d recomputes, %d LP solves, %d pivots; want 1 and the solves beneath it",
			m.Serve.Recomputes, m.LP.Solves, m.LP.Pivots)
	}
	if got := soleEngine(t, srv).col.Snapshot().LP; got != m.LP {
		t.Fatalf("artifact collector LP counters %+v, server's %+v", got, m.LP)
	}
}

// TestEndToEndBitIdentical is the offline→artifact→server pipeline proof:
// the allocation served over a real loopback listener is byte-for-byte the
// JSON encoding of the library's Online result, for every enumerated
// scenario, whether it came from a cold recomputation, a warm cache, or a
// server with caching disabled.
func TestEndToEndBitIdentical(t *testing.T) {
	path, inst, off, opt := writeArtifact(t)

	collector := obs.New()
	cached, err := New(path, Config{CacheSize: 64, Obs: collector})
	if err != nil {
		t.Fatal(err)
	}
	uncached, err := New(path, Config{CacheSize: 0, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	tsCached := httptest.NewServer(cached)
	defer tsCached.Close()
	tsUncached := httptest.NewServer(uncached)
	defer tsUncached.Close()

	for q, scen := range inst.Scenarios {
		res, err := flexscheme.Online(inst, off, q, opt)
		if err != nil {
			t.Fatalf("library Online(%d): %v", q, err)
		}
		want, err := json.Marshal(AllocResponse{Scenario: q, Prob: scen.Prob, Frac: res.Frac, X: res.X})
		if err != nil {
			t.Fatal(err)
		}

		var parts []string
		for _, e := range scen.Failed {
			parts = append(parts, strconv.Itoa(e))
		}
		url := "/v1/alloc?failed=" + strings.Join(parts, ",")

		// Cold miss, warm hit, cache-disabled, and batch entry: all four
		// bodies must be bit-identical to the library result.
		cold := get(t, tsCached.URL+url, "miss")
		warm := get(t, tsCached.URL+url, "hit")
		nocache := get(t, tsUncached.URL+url, "miss")
		entry := postBatch(t, tsCached.URL+"/v1/alloc/batch", []BatchQuery{{Failed: scen.Failed}})[0]
		if entry.Cache != "hit" {
			t.Fatalf("scenario %d: batch entry cache %q, want hit", q, entry.Cache)
		}
		for name, got := range map[string][]byte{"cold": cold, "warm": warm, "no-cache": nocache, "batch": entry.Body} {
			if !bytes.Equal(got, want) {
				t.Fatalf("scenario %d (%s): served body differs from library Online\n got: %s\nwant: %s", q, name, got, want)
			}
		}
	}

	// The uncached server must also agree with itself across repeats.
	repeat1 := get(t, tsUncached.URL+"/v1/alloc?failed=", "miss")
	repeat2 := get(t, tsUncached.URL+"/v1/alloc?failed=", "miss")
	if !bytes.Equal(repeat1, repeat2) {
		t.Fatal("cache-disabled server is not deterministic across repeats")
	}

	snap := collector.Snapshot()
	s := snap.Serve
	if s.CacheHits == 0 || s.CacheMisses == 0 || s.Requests != s.CacheHits+s.CacheMisses {
		t.Fatalf("cache counters inconsistent: %+v", s)
	}
	lat := snap.Latency.ServeRequest
	if lat.Count != uint64(s.Requests) || lat.Sum <= 0 {
		t.Fatalf("request latency histogram inconsistent with counters: %+v vs %+v", lat, s)
	}
	var inBuckets uint64
	for _, b := range lat.Buckets {
		inBuckets += b
	}
	if inBuckets != lat.Count {
		t.Fatalf("latency buckets sum %d != count %d", inBuckets, lat.Count)
	}
}

func get(t *testing.T, url, wantCache string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Flexile-Cache"); got != wantCache {
		t.Fatalf("GET %s: cache status %q, want %q", url, got, wantCache)
	}
	return body
}

func TestServerEndpoints(t *testing.T) {
	path, inst, _, _ := writeArtifact(t)
	srv, err := New(path, Config{CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()

	var info map[string]any
	resp, err = http.Get(ts.URL + "/v1/info")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info["topology"] != inst.Topo.Name || int(info["scenarios"].(float64)) != len(inst.Scenarios) {
		t.Fatalf("info = %v", info)
	}
	if info["checksum"] == "" || int(info["version"].(float64)) != ArtifactVersion {
		t.Fatalf("info missing checksum/version: %v", info)
	}

	var scens []struct {
		Index  int     `json:"index"`
		Prob   float64 `json:"prob"`
		Failed []int   `json:"failed"`
	}
	resp, err = http.Get(ts.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&scens); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(scens) != len(inst.Scenarios) {
		t.Fatalf("scenarios endpoint returned %d entries, want %d", len(scens), len(inst.Scenarios))
	}
	for q, sc := range scens {
		if sc.Index != q || sc.Prob != inst.Scenarios[q].Prob || sc.Failed == nil {
			t.Fatalf("scenario %d = %+v", q, sc)
		}
	}

	// Error paths: unmatched failure state, malformed query, bad body.
	for _, c := range []struct {
		url  string
		code int
	}{
		{"/v1/alloc?failed=0,1,2,0", http.StatusOK},     // dedup → the all-failed scenario
		{"/v1/alloc?failed=7", http.StatusNotFound},     // valid id, no matching scenario
		{"/v1/alloc?failed=abc", http.StatusBadRequest}, // malformed
		{"/v1/alloc?failed=-3", http.StatusBadRequest},  // negative
		{"/v1/allocate", http.StatusNotFound},           // unknown route
	} {
		resp, err := http.Get(ts.URL + c.url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.code {
			t.Errorf("GET %s = %d, want %d", c.url, resp.StatusCode, c.code)
		}
	}
	resp, err = http.Post(ts.URL+"/v1/alloc/batch", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST garbage batch = %d, want 400", resp.StatusCode)
	}
}

func TestReloadSwapsAtomically(t *testing.T) {
	path, _, _, _ := writeArtifact(t)
	collector := obs.New()
	srv, err := New(path, Config{CacheSize: 8, Obs: collector})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	before := get(t, ts.URL+"/v1/alloc?failed=0", "miss")

	// Corrupt the file: reload must fail and keep the old artifact serving.
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := srv.Reload(); err == nil {
		t.Fatal("reload of corrupt artifact must fail")
	}
	after := get(t, ts.URL+"/v1/alloc?failed=0", "hit")
	if !bytes.Equal(before, after) {
		t.Fatal("failed reload changed the served allocation")
	}

	// Restore a valid artifact: reload succeeds and the cache starts cold.
	s, err := solvedTriangle()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, s.blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := srv.Reload(); err != nil {
		t.Fatalf("reload of valid artifact: %v", err)
	}
	fresh := get(t, ts.URL+"/v1/alloc?failed=0", "miss") // cold cache proves the swap
	if !bytes.Equal(before, fresh) {
		t.Fatal("reloaded artifact serves a different allocation for the same state")
	}

	m := collector.Snapshot().Serve
	// New() counts the initial load: 3 reloads total, 1 failed.
	if m.Reloads != 3 || m.ReloadErrors != 1 {
		t.Fatalf("reload counters = %+v, want 3 reloads / 1 error", m)
	}
}
