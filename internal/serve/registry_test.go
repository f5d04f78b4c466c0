package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"flexile/internal/obs"
	"flexile/internal/obs/expo"
	flexscheme "flexile/internal/scheme/flexile"
)

// buildScaledBlob encodes a triangle artifact whose demands are scaled by
// scale, so different registry entries produce genuinely different
// allocations and routing mixups are detectable as body mismatches.
func buildScaledBlob(t testing.TB, scale float64) []byte {
	t.Helper()
	inst := triangleInstance()
	inst.Demand[0][0] = scale
	inst.Demand[0][1] = scale
	opt := flexscheme.Options{Workers: 2}
	off, err := flexscheme.Offline(inst, opt)
	if err != nil {
		t.Fatalf("offline solve (scale %v): %v", scale, err)
	}
	art, err := Build(inst, off, opt)
	if err != nil {
		t.Fatalf("Build (scale %v): %v", scale, err)
	}
	return art.Encode()
}

// scaledBlobs caches the per-scale offline solves across the test binary.
var scaledBlobs sync.Map // float64 → []byte

func scaledBlob(t testing.TB, scale float64) []byte {
	if b, ok := scaledBlobs.Load(scale); ok {
		return b.([]byte)
	}
	b := buildScaledBlob(t, scale)
	scaledBlobs.Store(scale, b)
	return b
}

// writeRegistryDir materializes a registry directory with one scaled
// triangle artifact per name (scales 1, 3, 5, ... so every artifact's
// allocations differ).
func writeRegistryDir(t testing.TB, names ...string) string {
	t.Helper()
	dir := t.TempDir()
	for i, name := range names {
		blob := scaledBlob(t, float64(1+2*i))
		if err := os.WriteFile(filepath.Join(dir, name+ArtifactExt), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestValidArtifactName(t *testing.T) {
	for _, ok := range []string{"ibm", "att-v2", "a", "B6.2_exp", strings.Repeat("x", 64)} {
		if !ValidArtifactName(ok) {
			t.Errorf("ValidArtifactName(%q) = false, want true", ok)
		}
	}
	for _, bad := range []string{"", ".hidden", "-flag", "a/b", "a b", "a\x00b", "ünïcode", strings.Repeat("x", 65)} {
		if ValidArtifactName(bad) {
			t.Errorf("ValidArtifactName(%q) = true, want false", bad)
		}
	}
}

// TestRegistryBatchBitIdentical is the e2e determinism contract for the
// fleet layer: for every artifact in a multi-artifact registry, batch
// entries are byte-identical to looping GET /v1/alloc, across cold/warm
// caches and worker counts, including repeated entries and both addressing
// forms (header, batch body).
func TestRegistryBatchBitIdentical(t *testing.T) {
	t.Parallel()
	names := []string{"alpha", "beta", "gamma"}
	dir := writeRegistryDir(t, names...)
	for _, workers := range []int{1, 2, 8} {
		for _, cacheSize := range []int{0, 64} {
			t.Run(fmt.Sprintf("workers=%d/cache=%d", workers, cacheSize), func(t *testing.T) {
				reg, err := NewRegistry(dir, Config{CacheSize: cacheSize, Workers: workers})
				if err != nil {
					t.Fatalf("NewRegistry: %v", err)
				}
				defer reg.Close()
				ts := httptest.NewServer(reg)
				defer ts.Close()

				// Oracle: loop GET /v1/alloc per artifact via the header.
				type pair struct {
					name   string
					q      int
					failed []int
				}
				var pairs []pair
				want := map[string][][]byte{}
				for _, name := range names {
					hdr := map[string]string{"X-Flexile-Artifact": name}
					scens := getScenarios(t, ts.URL+"/v1/scenarios", hdr)
					bodies := make([][]byte, len(scens))
					for q, failed := range scens {
						bodies[q] = getAlloc(t, ts.URL+"/v1/alloc", failed, hdr)
						pairs = append(pairs, pair{name, q, failed})
					}
					want[name] = bodies
				}
				// Distinct artifacts must answer distinctly somewhere, or the
				// routing assertions below would be vacuous.
				if bytes.Equal(flatten(want["alpha"]), bytes.Join(want["beta"], nil)) {
					t.Fatal("alpha and beta artifacts produced identical allocation sets")
				}

				// Batch: all (artifact, scenario) pairs in one stream of
				// envelopes, with every pair repeated in the same envelope.
				var queries []BatchQuery
				var expect [][]byte
				for _, p := range pairs {
					queries = append(queries, BatchQuery{Artifact: p.name, Failed: p.failed}, BatchQuery{Artifact: p.name, Failed: p.failed})
					expect = append(expect, want[p.name][p.q], want[p.name][p.q])
				}
				for off := 0; off < len(queries); off += 16 {
					end := off + 16
					if end > len(queries) {
						end = len(queries)
					}
					results := postBatch(t, ts.URL+"/v1/alloc/batch", queries[off:end])
					for i, e := range results {
						if e.Status != http.StatusOK {
							t.Fatalf("batch entry %d: status %d (%s)", off+i, e.Status, e.Error)
						}
						if !bytes.Equal([]byte(e.Body), expect[off+i]) {
							t.Fatalf("batch entry %d (artifact %s) body diverged from GET /v1/alloc", off+i, e.Artifact)
						}
					}
				}
			})
		}
	}
}

func flatten(bs [][]byte) []byte { return bytes.Join(bs, nil) }

func getScenarios(t testing.TB, url string, headers map[string]string) [][]int {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	var scens []struct {
		Failed []int `json:"failed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&scens); err != nil {
		t.Fatal(err)
	}
	out := make([][]int, len(scens))
	for i, sc := range scens {
		out[i] = sc.Failed
	}
	return out
}

func getAlloc(t testing.TB, url string, failed []int, headers map[string]string) []byte {
	t.Helper()
	parts := make([]string, len(failed))
	for i, e := range failed {
		parts[i] = fmt.Sprint(e)
	}
	req, err := http.NewRequest(http.MethodGet, url+"?failed="+strings.Join(parts, ","), nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", url, resp.Status, buf.String())
	}
	return buf.Bytes()
}

func postBatch(t testing.TB, url string, queries []BatchQuery) []BatchEntry {
	t.Helper()
	body, err := json.Marshal(BatchRequest{Queries: queries})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %s: %s", url, resp.Status, buf.String())
	}
	var env BatchResponse
	if err := json.Unmarshal(buf.Bytes(), &env); err != nil {
		t.Fatalf("batch envelope: %v", err)
	}
	if len(env.Results) != len(queries) {
		t.Fatalf("batch answered %d of %d queries", len(env.Results), len(queries))
	}
	return env.Results
}

// TestRegistryRouting covers the fleet endpoints and addressing rules:
// header addressing, stable 404 bodies for unknown and missing names, the
// status listing, and a lint-clean labeled metrics page.
func TestRegistryRouting(t *testing.T) {
	t.Parallel()
	dir := writeRegistryDir(t, "alpha", "beta")
	reg, err := NewRegistry(dir, Config{CacheSize: 16, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ts := httptest.NewServer(reg)
	defer ts.Close()

	if got := reg.Names(); !reflect.DeepEqual(got, []string{"alpha", "beta"}) {
		t.Fatalf("Names() = %v", got)
	}

	// The header picks the artifact: beta's answer is its own, not alpha's.
	beta := map[string]string{"X-Flexile-Artifact": "beta"}
	scens := getScenarios(t, ts.URL+"/v1/scenarios", beta)
	alpha := getAlloc(t, ts.URL+"/v1/alloc", scens[1], map[string]string{"X-Flexile-Artifact": "alpha"})
	if bytes.Equal(getAlloc(t, ts.URL+"/v1/alloc", scens[1], beta), alpha) {
		t.Error("header addressing answered beta with alpha's allocation")
	}

	// Unknown names 404 with the stable error body on every per-artifact
	// route, and so does an unaddressed request while more than one
	// artifact is loaded.
	for _, c := range []struct{ path, artifact, want string }{
		{"/v1/alloc?failed=", "nope", `{"error":"unknown artifact \"nope\""}`},
		{"/v1/scenarios", "nope", `{"error":"unknown artifact \"nope\""}`},
		{"/v1/info", "nope", `{"error":"unknown artifact \"nope\""}`},
		{"/v1/alloc?failed=", "", `{"error":"artifact name required: 2 artifacts loaded"}`},
	} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+c.path, nil)
		if c.artifact != "" {
			req.Header.Set("X-Flexile-Artifact", c.artifact)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s (artifact %q): %d", c.path, c.artifact, resp.StatusCode)
		}
		if string(body) != c.want+"\n" {
			t.Fatalf("GET %s (artifact %q): body = %q, want %q", c.path, c.artifact, body, c.want)
		}
	}

	// Status listing: one row per artifact with live identity.
	var rows []ArtifactStatus
	getJSON(t, ts.URL+"/v1/artifacts", &rows)
	if len(rows) != 2 || rows[0].Name != "alpha" || rows[1].Name != "beta" {
		t.Fatalf("artifact rows = %+v", rows)
	}
	for _, row := range rows {
		if row.Checksum == "" || row.Topology != "Triangle" || row.Scenarios != 8 {
			t.Errorf("row %q incomplete: %+v", row.Name, row)
		}
	}

	// Fleet health and readiness.
	var health struct {
		OK        bool              `json:"ok"`
		Artifacts map[string]string `json:"artifacts"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if !health.OK || len(health.Artifacts) != 2 {
		t.Errorf("healthz = %+v", health)
	}
	var ready struct {
		Ready bool `json:"ready"`
	}
	getJSON(t, ts.URL+"/readyz", &ready)
	if !ready.Ready {
		t.Error("registry not ready")
	}

	// The metrics page must lint cleanly with the per-artifact families
	// present and labeled.
	page := getAlloc(t, ts.URL+"/metrics", nil, nil)
	if err := expo.Lint(page); err != nil {
		t.Fatalf("metrics lint: %v", err)
	}
	for _, want := range []string{
		`flexile_registry_artifacts 2`,
		`flexile_serve_artifact_requests_total{artifact="alpha"}`,
		`flexile_serve_cache_entries{artifact="beta"}`,
		`flexile_artifact_info{artifact="alpha",`,
		`flexile_serve_batch_requests_total`,
	} {
		if !strings.Contains(string(page), want) {
			t.Errorf("metrics page missing %q", want)
		}
	}

	// BeginDrain flips fleet readiness.
	reg.BeginDrain()
	rr, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz after drain = %d, want 503", rr.StatusCode)
	}
}

// TestRegistryReload proves per-name hot reload: adding a file brings a
// new artifact up, removing one drops it, and a corrupt neighbor fails
// alone while healthy names keep reloading and serving.
func TestRegistryReload(t *testing.T) {
	t.Parallel()
	dir := writeRegistryDir(t, "alpha")
	reg, err := NewRegistry(dir, Config{CacheSize: 16, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ts := httptest.NewServer(reg)
	defer ts.Close()

	// Add a second artifact and rescan.
	if err := os.WriteFile(filepath.Join(dir, "beta"+ArtifactExt), scaledBlob(t, 3), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := reg.Reload(); err != nil {
		t.Fatalf("Reload after add: %v", err)
	}
	if got := reg.Names(); !reflect.DeepEqual(got, []string{"alpha", "beta"}) {
		t.Fatalf("Names after add = %v", got)
	}
	beta := map[string]string{"X-Flexile-Artifact": "beta"}
	scens := getScenarios(t, ts.URL+"/v1/scenarios", beta)
	want := getAlloc(t, ts.URL+"/v1/alloc", scens[0], beta)

	// Corrupt beta: the rescan reports it, alpha still reloads, and beta
	// keeps serving its previous state bit-identically.
	if err := os.WriteFile(filepath.Join(dir, "beta"+ArtifactExt), []byte("corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = reg.Reload()
	if err == nil || !strings.Contains(err.Error(), `artifact "beta"`) {
		t.Fatalf("Reload with corrupt beta: %v", err)
	}
	if got := getAlloc(t, ts.URL+"/v1/alloc", scens[0], beta); !bytes.Equal(got, want) {
		t.Error("beta stopped serving its previous state after a failed reload")
	}

	// Remove beta entirely: the name drops and 404s.
	if err := os.Remove(filepath.Join(dir, "beta"+ArtifactExt)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Reload(); err != nil {
		t.Fatalf("Reload after remove: %v", err)
	}
	if got := reg.Names(); !reflect.DeepEqual(got, []string{"alpha"}) {
		t.Fatalf("Names after remove = %v", got)
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/alloc?failed=", nil)
	req.Header.Set("X-Flexile-Artifact", "beta")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("removed artifact still answers: %d", resp.StatusCode)
	}

	// With one artifact and no default, bare addressing resolves to it.
	if got := getAlloc(t, ts.URL+"/v1/alloc", scens[0], nil); len(got) == 0 {
		t.Error("sole-artifact default resolution failed")
	}
}

func getJSON(t testing.TB, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// TestBatchCountsPerArtifact: batch entries land on the artifact that
// answered them, and the root keeps the fleet totals (entries naming no
// loaded artifact are counted there alone).
func TestBatchCountsPerArtifact(t *testing.T) {
	dir := writeRegistryDir(t, "alpha", "beta")
	col := obs.New()
	reg, err := NewRegistry(dir, Config{CacheSize: 16, Workers: 2, Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ts := httptest.NewServer(reg)
	defer ts.Close()

	postBatch(t, ts.URL+"/v1/alloc/batch", []BatchQuery{
		{Artifact: "alpha", Failed: []int{0}},
		{Artifact: "alpha", Failed: []int{0}}, // repeated
		{Artifact: "alpha", Failed: []int{1}},
		{Artifact: "beta", Failed: []int{0}},
		{Artifact: "nope", Failed: []int{0}}, // 404, root only
	})
	var rows []ArtifactStatus
	getJSON(t, ts.URL+"/v1/artifacts", &rows)
	want := map[string]int64{"alpha": 3, "beta": 1}
	for _, row := range rows {
		if row.BatchEntries != want[row.Name] {
			t.Errorf("%s: batch entries = %d, want %d", row.Name, row.BatchEntries, want[row.Name])
		}
	}
	if sm := col.Snapshot().Serve; sm.BatchEntries != 5 || sm.BatchRequests != 1 {
		t.Errorf("root batch counters = %d entries, %d requests; want 5, 1", sm.BatchEntries, sm.BatchRequests)
	}
}

// TestOneAndManyShareWireShape: a one-artifact server and a two-artifact
// registry render the same /metrics families, with every per-artifact
// series labelled artifact=, and /healthz and /readyz bodies with the same
// keys.
func TestOneAndManyShareWireShape(t *testing.T) {
	path, _, _, _ := writeArtifact(t)
	one, err := New(path, Config{CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	many, err := NewRegistry(writeRegistryDir(t, "alpha", "beta"), Config{CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer many.Close()

	var aggregate bytes.Buffer // the families that are not per-artifact
	if err := expo.WritePage(&aggregate, nil, nil); err != nil {
		t.Fatal(err)
	}
	unlabelled := families(aggregate.String())
	unlabelled["flexile_serve_ready"] = true
	unlabelled["flexile_registry_artifacts"] = true

	var fams [2]map[string]bool
	var probes [2]string
	for i, srv := range []*Server{one, many} {
		ts := httptest.NewServer(srv)
		page := string(getAlloc(t, ts.URL+"/metrics", nil, nil))
		if err := expo.Lint([]byte(page)); err != nil {
			t.Fatalf("metrics lint: %v", err)
		}
		fams[i] = families(page)
		for _, line := range strings.Split(page, "\n") {
			name, _, _ := strings.Cut(line, "{")
			name, _, _ = strings.Cut(name, " ")
			if line == "" || line[0] == '#' || unlabelled[histFamily(name)] {
				continue
			}
			if !strings.Contains(line, `{artifact="`) {
				t.Errorf("per-artifact series without an artifact label: %s", line)
			}
		}
		var health, ready map[string]any
		getJSON(t, ts.URL+"/healthz", &health)
		getJSON(t, ts.URL+"/readyz", &ready)
		ts.Close()
		probes[i] = fmt.Sprint(sortedKeys(health), sortedKeys(ready))
	}
	for name := range fams[0] {
		if !fams[1][name] {
			t.Errorf("family %s only with one artifact", name)
		}
	}
	for name := range fams[1] {
		if !fams[0][name] {
			t.Errorf("family %s only with two artifacts", name)
		}
	}
	if probes[0] != probes[1] {
		t.Errorf("/healthz, /readyz keys: one artifact %s, two %s", probes[0], probes[1])
	}
}

// histFamily strips a histogram sample's _bucket, _sum or _count suffix.
func histFamily(name string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		name = strings.TrimSuffix(name, suffix)
	}
	return name
}

// families returns the family names a page declares in its TYPE lines.
func families(page string) map[string]bool {
	out := map[string]bool{}
	for _, line := range strings.Split(page, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ := strings.Cut(rest, " ")
			out[name] = true
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
