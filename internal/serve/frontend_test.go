package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"flexile/internal/obs"
	flexscheme "flexile/internal/scheme/flexile"
)

// frontPair is the same artifact served through both constructors: New
// pinned to the file, NewRegistry over a directory holding only that file.
// Everything a client can observe must be identical between the two.
type frontPair struct {
	t        *testing.T
	pinned   *Server
	scanned  *Server
	pinnedTS *httptest.Server
	scanTS   *httptest.Server
}

// newFrontPair builds both front ends from fresh copies of cfg().
func newFrontPair(t *testing.T, cfg func() Config) *frontPair {
	t.Helper()
	dir := writeRegistryDir(t, "tri")
	pinned, err := New(filepath.Join(dir, "tri"+ArtifactExt), cfg())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	scanned, err := NewRegistry(dir, cfg())
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	p := &frontPair{t: t, pinned: pinned, scanned: scanned,
		pinnedTS: httptest.NewServer(pinned), scanTS: httptest.NewServer(scanned)}
	t.Cleanup(func() {
		p.pinnedTS.Close()
		p.scanTS.Close()
		pinned.Close()
		scanned.Close()
	})
	return p
}

var loadedAtRE = regexp.MustCompile(`"loaded_at":"[^"]*"`)

// wire flattens what a client sees of one response: status, the contract
// headers, and the body with load timestamps masked.
func wire(resp *http.Response) string {
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var hdrs []string
	for k, v := range resp.Header {
		if strings.HasPrefix(k, "X-Flexile-") || k == "Retry-After" || k == "Content-Type" {
			hdrs = append(hdrs, k+": "+strings.Join(v, ","))
		}
	}
	sort.Strings(hdrs)
	return fmt.Sprintf("%d\n%s\n%s", resp.StatusCode, strings.Join(hdrs, "\n"),
		loadedAtRE.ReplaceAll(body, []byte(`"loaded_at":"T"`)))
}

// same sends one request to both front ends, requires identical wire
// images, and returns the image.
func (p *frontPair) same(method, target, body string, hdr map[string]string) string {
	p.t.Helper()
	var imgs [2]string
	for i, base := range []string{p.pinnedTS.URL, p.scanTS.URL} {
		req, err := http.NewRequest(method, base+target, strings.NewReader(body))
		if err != nil {
			p.t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			p.t.Fatal(err)
		}
		imgs[i] = wire(resp)
	}
	if imgs[0] != imgs[1] {
		p.t.Fatalf("%s %s diverged between New and NewRegistry:\n--- New\n%s\n--- NewRegistry\n%s", method, target, imgs[0], imgs[1])
	}
	return imgs[0]
}

func wantPrefix(t *testing.T, img, prefix string) {
	t.Helper()
	if !strings.HasPrefix(img, prefix) {
		t.Fatalf("response starts %.60q, want prefix %q", img, prefix)
	}
}

// TestFrontEndEquivalence: serve.New(path) and serve.NewRegistry(dir) over
// the same single file are one front end — identical status, body bytes and
// X-Flexile-*/Retry-After/Content-Type headers on every route.
func TestFrontEndEquivalence(t *testing.T) {
	t.Parallel()
	plain := func() Config { return Config{CacheSize: 8, Workers: 2, Obs: obs.New()} }

	t.Run("routes", func(t *testing.T) {
		p := newFrontPair(t, plain)
		for _, c := range []struct {
			method, target, body, want string
		}{
			{"GET", "/v1/alloc?failed=0", "", "200\nContent-Type: application/json\nX-Flexile-Cache: miss\n"},
			{"GET", "/v1/alloc?failed=0", "", "200\nContent-Type: application/json\nX-Flexile-Cache: hit\n"},
			{"GET", "/v1/alloc?failed=abc", "", "400\n"},
			{"GET", "/v1/alloc?failed=7", "", "404\n"},
			// A cached state may repeat within a batch; an uncached one may
			// not here, since its second entry is a hit or a miss by how the
			// two entries' solves interleave, as for two concurrent GETs.
			{"POST", "/v1/alloc/batch", `{"queries":[{"failed":[0]},{"failed":[2,1]},{"artifact":"nope","failed":[]},{"artifact":"tri","failed":[0]}]}`, "200\n"},
			{"POST", "/v1/alloc/batch", `{"queries":[`, "400\n"},
			{"GET", "/v1/info", "", "200\n"},
			{"GET", "/v1/scenarios", "", "200\n"},
			{"GET", "/v1/artifacts", "", "200\n"},
			{"GET", "/healthz", "", "200\n"},
			{"GET", "/readyz", "", "200\n"},
			{"GET", "/v1/allocate", "", "404\n"},
		} {
			wantPrefix(t, p.same(c.method, c.target, c.body, nil), c.want)
		}
		// The batch envelope answers in order: hit, the same state again
		// (a hit too), and an unknown artifact.
		img := p.same("POST", "/v1/alloc/batch", `{"queries":[{"failed":[0]},{"failed":[0]},{"artifact":"nope","failed":[0]}]}`, nil)
		var env BatchResponse
		if err := json.Unmarshal([]byte(img[strings.LastIndex(img, "\n{")+1:]), &env); err != nil {
			t.Fatalf("batch envelope: %v\n%s", err, img)
		}
		if env.Results[0].Cache != "hit" || env.Results[1].Cache != "hit" || env.Results[2].Status != http.StatusNotFound {
			t.Fatalf("batch entries = %+v", env.Results)
		}
		// One artifact answers the process-level routes as a fleet of one.
		if img := p.same("GET", "/healthz", "", nil); !strings.Contains(img, `"artifacts":{"tri":"`) || strings.Contains(img, `"checksum"`) {
			t.Fatalf("one-entry /healthz should map its one artifact to its checksum:\n%s", img)
		}
	})

	t.Run("readyz", func(t *testing.T) {
		var mu sync.Mutex
		var entered, release []chan struct{}
		p := newFrontPair(t, func() Config {
			in, out := make(chan struct{}), make(chan struct{})
			mu.Lock()
			entered, release = append(entered, in), append(release, out)
			mu.Unlock()
			cfg := plain()
			cfg.loadHook = func(attempt int) error {
				if attempt > 1 { // attempt 1 is the constructor's initial load
					close(in)
					<-out
				}
				return nil
			}
			return cfg
		})
		done := make(chan error, 2)
		go func() { done <- p.pinned.Reload() }()
		go func() { done <- p.scanned.Reload() }()
		<-entered[0]
		<-entered[1]
		wantPrefix(t, p.same("GET", "/readyz", "", nil), "503\n")
		// Mid-reload the previous state keeps answering.
		wantPrefix(t, p.same("GET", "/v1/alloc?failed=0", "", nil), "200\n")
		close(release[0])
		close(release[1])
		for i := 0; i < 2; i++ {
			if err := <-done; err != nil {
				t.Fatalf("reload: %v", err)
			}
		}
		wantPrefix(t, p.same("GET", "/readyz", "", nil), "200\n")
		p.pinned.BeginDrain()
		p.scanned.BeginDrain()
		if img := p.same("GET", "/readyz", "", nil); !strings.HasPrefix(img, "503\n") || !strings.Contains(img, "draining") {
			t.Fatalf("draining /readyz:\n%s", img)
		}
		wantPrefix(t, p.same("GET", "/healthz", "", nil), "200\n")
	})

	t.Run("quota shed", func(t *testing.T) {
		p := newFrontPair(t, func() Config {
			cfg := plain()
			cfg.TenantRate, cfg.TenantBurst = 0.001, 1
			return cfg
		})
		hdr := map[string]string{"X-Tenant": "acme"}
		wantPrefix(t, p.same("GET", "/v1/alloc?failed=0", "", hdr), "200\n")
		wantPrefix(t, p.same("GET", "/v1/alloc?failed=0", "", hdr), "429\nContent-Type: application/json\nRetry-After: 1000\nX-Flexile-Shed: quota\n")
		wantPrefix(t, p.same("POST", "/v1/alloc/batch", `{"queries":[{"failed":[0]}]}`, hdr), "200\n")
	})

	t.Run("deadline shed", func(t *testing.T) {
		release := make(chan struct{})
		defer close(release)
		p := newFrontPair(t, func() Config {
			cfg := plain()
			cfg.ComputeHook = func(int) error { <-release; return nil }
			return cfg
		})
		wantPrefix(t, p.same("GET", "/v1/alloc?failed=0", "", map[string]string{"X-Request-Deadline": "30ms"}),
			"503\nContent-Type: application/json\nRetry-After: 1\nX-Flexile-Shed: deadline\n")
		wantPrefix(t, p.same("GET", "/v1/alloc?failed=0", "", map[string]string{"X-Request-Deadline": "soon"}), "400\n")
	})

	// A failed recompute is a plain 500 carrying the error, and nothing is
	// cached: asking again for the same state runs the solve again.
	t.Run("solve failure", func(t *testing.T) {
		var calls atomic.Int64
		p := newFrontPair(t, func() Config {
			cfg := plain()
			cfg.ComputeHook = func(int) error { calls.Add(1); return errors.New("scripted solve failure") }
			return cfg
		})
		for i := int64(1); i <= 2; i++ {
			if img := p.same("GET", "/v1/alloc?failed=0", "", nil); img != "500\nContent-Type: application/json\n{\"error\":\"scripted solve failure\"}\n" {
				t.Fatalf("failing solve, attempt %d:\n%s", i, img)
			}
			if got := calls.Load(); got != 2*i { // one solve per front end per attempt
				t.Fatalf("after attempt %d the hook ran %d times, want %d", i, got, 2*i)
			}
		}
	})
}

// TestWireSurfacePinned pins the wire: every (method, path, artifact
// header) a client can send and the status both constructors answer with.
// Each per-artifact route exists once, bare, and names its artifact by the
// X-Flexile-Artifact header (none: the sole loaded one). A new wire form
// edits this table and says why; the removed forms stay as rows so they
// cannot come back unnoticed.
func TestWireSurfacePinned(t *testing.T) {
	t.Parallel()
	p := newFrontPair(t, func() Config { return Config{CacheSize: 8, Workers: 2, Obs: obs.New()} })
	const batch = `{"queries":[{"failed":[0]}]}`
	for _, c := range []struct {
		method, target, artifact, body string
		status                         int
	}{
		{"GET", "/healthz", "", "", 200},
		{"GET", "/readyz", "", "", 200},
		{"GET", "/metrics", "", "", 200},
		{"GET", "/v1/artifacts", "", "", 200},
		{"GET", "/v1/info", "", "", 200},
		{"GET", "/v1/info", "tri", "", 200},
		{"GET", "/v1/info", "nope", "", 404},
		{"GET", "/v1/scenarios", "", "", 200},
		{"GET", "/v1/scenarios", "tri", "", 200},
		{"GET", "/v1/scenarios", "nope", "", 404},
		{"GET", "/v1/alloc?failed=0", "", "", 200},
		{"GET", "/v1/alloc?failed=0", "tri", "", 200},
		{"GET", "/v1/alloc?failed=0", "nope", "", 404},
		{"POST", "/v1/alloc/batch", "", batch, 200},
		{"POST", "/v1/alloc/batch", "tri", batch, 200},
		{"POST", "/v1/alloc/batch", "nope", batch, 200}, // the entry is the 404
		// Wrong methods on kept routes.
		{"POST", "/v1/info", "", "", 405},
		{"GET", "/v1/alloc/batch", "", "", 405},
		{"POST", "/healthz", "", "", 405},
		// Removed forms: path addressing and the single-query POST.
		{"GET", "/v1/artifacts/tri/alloc?failed=0", "", "", 404},
		{"POST", "/v1/artifacts/tri/alloc", "", `{"failed":[0]}`, 404},
		{"POST", "/v1/artifacts/tri/alloc/batch", "", batch, 404},
		{"GET", "/v1/artifacts/tri/info", "", "", 404},
		{"GET", "/v1/artifacts/tri/scenarios", "", "", 404},
		{"POST", "/v1/alloc", "", `{"failed":[0]}`, 405},
		{"GET", "/v1/allocate", "", "", 404},
	} {
		var hdr map[string]string
		if c.artifact != "" {
			hdr = map[string]string{"X-Flexile-Artifact": c.artifact}
		}
		for i, base := range []string{p.pinnedTS.URL, p.scanTS.URL} {
			req, err := http.NewRequest(c.method, base+c.target, strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			for k, v := range hdr {
				req.Header.Set(k, v)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != c.status {
				t.Errorf("%s: %s %s (artifact %q) = %d, pinned %d",
					[]string{"New", "NewRegistry"}[i], c.method, c.target, c.artifact, resp.StatusCode, c.status)
			}
		}
	}
}

// TestPinnedFileNeverRemoved: a server built by New is pinned to its file.
// Deleting the file makes Reload fail — it does not drop the artifact the
// way a directory rescan drops a vanished name — and the loaded state keeps
// answering every scenario oracle-exact.
func TestPinnedFileNeverRemoved(t *testing.T) {
	path, inst, off, opt := writeArtifact(t)
	srv, err := New(path, Config{CacheSize: 0, Workers: 2, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := srv.Reload(); err == nil || !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("Reload %d with the file gone = %v, want a not-exist error", i, err)
		}
	}
	if got := srv.Names(); len(got) != 1 || got[0] != "triangle" {
		t.Fatalf("Names() after failed reloads = %v, want [triangle]", got)
	}
	for q, sc := range inst.Scenarios {
		res, err := flexscheme.Online(inst, off, q, opt)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(AllocResponse{Scenario: q, Prob: sc.Prob, Frac: res.Frac, X: res.X})
		if got := getAlloc(t, ts.URL+"/v1/alloc", sc.Failed, nil); !bytes.Equal(got, want) {
			t.Fatalf("scenario %d diverged from the oracle after the file vanished", q)
		}
	}
	var ready struct {
		Ready bool `json:"ready"`
	}
	getJSON(t, ts.URL+"/readyz", &ready)
	if !ready.Ready {
		t.Fatal("server not ready after a failed reload")
	}
}

// accessRecords returns the "request" records of a JSON slog stream.
func accessRecords(t *testing.T, stream string) []map[string]any {
	t.Helper()
	var recs []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(stream), "\n") {
		var r map[string]any
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if r["msg"] == "request" {
			recs = append(recs, r)
		}
	}
	return recs
}

// TestFleetAccessLogAndTraceIdentity: every route runs inside the one
// bracket, so a fleet batch is access-logged like any other request, and
// both the access record and the /debug/requests row carry the path the
// client sent — plus, in the log, the resolved artifact — so traffic for
// different artifacts stays distinguishable.
func TestFleetAccessLogAndTraceIdentity(t *testing.T) {
	dir := writeRegistryDir(t, "alpha", "beta")
	var buf syncBuffer
	ring := obs.NewTraceRing(0, 0, 0)
	reg, err := NewRegistry(dir, Config{
		CacheSize: 8, Workers: 2, Obs: obs.New(),
		Log: slog.New(slog.NewJSONHandler(&buf, nil)), Ring: ring, TraceEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ts := httptest.NewServer(reg)
	defer ts.Close()

	getAlloc(t, ts.URL+"/v1/alloc", []int{0}, map[string]string{"X-Flexile-Artifact": "alpha"})
	getAlloc(t, ts.URL+"/v1/alloc", []int{0}, map[string]string{"X-Flexile-Artifact": "beta"})
	postBatch(t, ts.URL+"/v1/alloc/batch", []BatchQuery{{Artifact: "alpha", Failed: []int{0}}, {Artifact: "beta", Failed: []int{1}}})

	recs := accessRecords(t, buf.String())
	if len(recs) != 3 {
		t.Fatalf("got %d access records, want 3 (a GET to alpha, a GET to beta, a fleet batch):\n%s", len(recs), buf.String())
	}
	for i, want := range []struct{ path, artifact string }{
		{"/v1/alloc", "alpha"},
		{"/v1/alloc", "beta"},
		{"/v1/alloc/batch", ""},
	} {
		if recs[i]["path"] != want.path || recs[i]["artifact"] != want.artifact || recs[i]["status"] != float64(200) {
			t.Errorf("record %d = path %v artifact %v status %v, want %s / %q / 200",
				i, recs[i]["path"], recs[i]["artifact"], recs[i]["status"], want.path, want.artifact)
		}
	}

	var paths []string
	for _, s := range ring.Recent() { // newest first
		paths = append(paths, s.Path)
	}
	if want := []string{"/v1/alloc/batch", "/v1/alloc", "/v1/alloc"}; strings.Join(paths, " ") != strings.Join(want, " ") {
		t.Fatalf("/debug/requests paths = %v, want %v", paths, want)
	}
}

// TestSamplingIsPerProcess: -trace-sample N and -log-sample N mean 1-in-N
// of the daemon's traffic, not 1-in-N per artifact and another counter for
// the batch route.
func TestSamplingIsPerProcess(t *testing.T) {
	dir := writeRegistryDir(t, "alpha", "beta")
	var buf syncBuffer
	ring := obs.NewTraceRing(64, 0, 0)
	reg, err := NewRegistry(dir, Config{
		CacheSize: 8, Workers: 2, Obs: obs.New(),
		Log: slog.New(slog.NewJSONHandler(&buf, nil)), LogEvery: 4, Ring: ring, TraceEvery: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	for i := 0; i < 32; i++ {
		req := httptest.NewRequest(http.MethodGet, "/v1/alloc?failed=0", nil)
		req.Header.Set("X-Flexile-Artifact", []string{"alpha", "beta"}[i%2])
		if i%8 == 7 { // a few fleet batches ride the same counters
			req = httptest.NewRequest(http.MethodPost, "/v1/alloc/batch", strings.NewReader(`{"queries":[{"artifact":"alpha","failed":[0]}]}`))
		}
		w := httptest.NewRecorder()
		reg.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, w.Code, w.Body.String())
		}
	}
	if got := ring.Total(); got != 8 {
		t.Fatalf("TraceEvery=4 traced %d of 32 requests, want 8", got)
	}
	if got := len(accessRecords(t, buf.String())); got != 8 {
		t.Fatalf("LogEvery=4 logged %d of 32 requests, want 8", got)
	}
}
