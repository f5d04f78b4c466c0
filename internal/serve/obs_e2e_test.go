package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"flexile/internal/obs"
	"flexile/internal/obs/expo"
)

func TestHealthzReportsArtifact(t *testing.T) {
	path, _, _, _ := writeArtifact(t)
	srv, err := New(path, Config{CacheSize: 8, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var health map[string]any
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health["ok"] != true {
		t.Fatalf("healthz = %d %v", resp.StatusCode, health)
	}
	if int(health["version"].(float64)) != ArtifactVersion {
		t.Fatalf("healthz version = %v", health["version"])
	}
	checksum, _ := health["checksum"].(string)
	if len(checksum) != 64 {
		t.Fatalf("healthz checksum = %q", checksum)
	}
	if _, err := time.Parse(time.RFC3339Nano, health["loaded_at"].(string)); err != nil {
		t.Fatalf("healthz loaded_at: %v", err)
	}

	// The checksum must agree with /v1/info's.
	var info map[string]any
	resp, err = http.Get(ts.URL + "/v1/info")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if info["checksum"] != checksum {
		t.Fatalf("healthz checksum %q != info checksum %q", checksum, info["checksum"])
	}
}

// TestReadyzTracksReloads drives a reload that blocks inside the load hook:
// /readyz must flip to 503 with a JSON reason while the reload is decoding,
// /v1/alloc must keep serving from the previous artifact throughout, and
// readiness must return once the reload completes.
func TestReadyzTracksReloads(t *testing.T) {
	path, _, _, _ := writeArtifact(t)
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv, err := New(path, Config{CacheSize: 8, Obs: obs.New(), LoadHook: func(attempt int) error {
		if attempt > 1 { // attempt 1 is New()'s initial load
			once.Do(func() { close(entered) })
			<-release
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	readyz := func() (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("readyz body is not JSON: %v", err)
		}
		return resp.StatusCode, body
	}

	if code, body := readyz(); code != http.StatusOK || body["ready"] != true {
		t.Fatalf("initial readyz = %d %v", code, body)
	}

	reloadDone := make(chan error, 1)
	go func() { reloadDone <- srv.Reload() }()
	<-entered

	code, body := readyz()
	if code != http.StatusServiceUnavailable || body["ready"] != false {
		t.Fatalf("readyz during reload = %d %v", code, body)
	}
	if reason, _ := body["reason"].(string); !strings.Contains(reason, "reload") {
		t.Fatalf("readyz reason = %q", body["reason"])
	}
	// The previous artifact keeps serving while not ready.
	get(t, ts.URL+"/v1/alloc?failed=0", "miss")

	close(release)
	if err := <-reloadDone; err != nil {
		t.Fatalf("reload: %v", err)
	}
	if code, body := readyz(); code != http.StatusOK || body["ready"] != true {
		t.Fatalf("readyz after reload = %d %v", code, body)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	path, inst, _, _ := writeArtifact(t)
	srv, err := New(path, Config{CacheSize: 8, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	get(t, ts.URL+"/v1/alloc?failed=0", "miss")
	get(t, ts.URL+"/v1/alloc?failed=0", "hit")
	get(t, ts.URL+"/v1/alloc?failed=", "miss")

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != expo.ContentType {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	if err := expo.Lint(page); err != nil {
		t.Fatalf("metrics page does not lint: %v", err)
	}
	text := string(page)
	for _, want := range []string{
		"flexile_serve_requests_total 3",
		"flexile_serve_cache_hits_total 1",
		"flexile_serve_cache_misses_total 2",
		"flexile_serve_ready 1",
		"flexile_serve_gate_capacity ",
		"flexile_serve_cache_entries 2",
		`flexile_serve_request_duration_seconds_bucket{le="+Inf"} 3`,
		"flexile_serve_request_duration_seconds_count 3",
		`topology="` + inst.Topo.Name + `"`,
		"go_sched_goroutines",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
	// The artifact-identity gauge carries the live checksum.
	st := soleEngine(t, srv).st.Load()
	if !strings.Contains(text, `checksum="`+st.checksum+`"`) {
		t.Errorf("metrics page missing artifact checksum label")
	}
	// At least 8 finite buckets render for the request-latency histogram.
	if n := strings.Count(text, "flexile_serve_request_duration_seconds_bucket{le="); n < 9 {
		t.Errorf("only %d request-latency bucket lines", n)
	}
	// At least 5 go_ runtime families.
	goFam := 0
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# TYPE go_") {
			goFam++
		}
	}
	if goFam < 5 {
		t.Errorf("only %d go_ runtime families", goFam)
	}
}

// TestMetricsScrapeConcurrentWithHammer is the race-window proof for the
// serving metrics: scrapes run concurrently with an allocation hammer (run
// it under -race), and every scraped page must be internally consistent —
// expo.Lint rejects any histogram whose _count disagrees with its +Inf
// bucket, which is exactly what a snapshot torn across two instants
// produces.
func TestMetricsScrapeConcurrentWithHammer(t *testing.T) {
	path, _, _, _ := writeArtifact(t)
	srv, err := New(path, Config{CacheSize: 8, Workers: 2, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			urls := []string{
				ts.URL + "/v1/alloc?failed=0",
				ts.URL + "/v1/alloc?failed=",
				ts.URL + "/v1/alloc?failed=0,1,2",
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(urls[(g+i)%len(urls)])
				if err != nil {
					t.Errorf("hammer: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(g)
	}

	for i := 0; i < 40; i++ {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		page, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if lerr := expo.Lint(page); lerr != nil {
			t.Fatalf("scrape %d inconsistent under load: %v", i, lerr)
		}
	}
	close(stop)
	wg.Wait()

	// Quiescent cross-check: the histogram count must equal the request
	// counter exactly once the hammer stops.
	snap := srv.col.Snapshot()
	if snap.Latency.ServeRequest.Count != uint64(snap.Serve.Requests) {
		t.Fatalf("latency count %d != requests %d",
			snap.Latency.ServeRequest.Count, snap.Serve.Requests)
	}
}

// syncBuffer guards a bytes.Buffer for use as a slog sink written from
// handler goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestAccessLogRecords(t *testing.T) {
	path, _, _, _ := writeArtifact(t)
	var buf syncBuffer
	lg := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo}))
	srv, err := New(path, Config{CacheSize: 8, Obs: obs.New(), Log: lg})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	get(t, ts.URL+"/v1/alloc?failed=0", "miss")
	get(t, ts.URL+"/v1/alloc?failed=0", "hit")

	// A caller-supplied request id is propagated into the response and log.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/alloc?failed=0", nil)
	req.Header.Set("X-Request-Id", "caller-id-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "caller-id-42" {
		t.Fatalf("request id not echoed: %q", got)
	}

	// A bad request logs its status.
	resp, err = http.Get(ts.URL + "/v1/alloc?failed=abc")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	type record struct {
		Msg       string `json:"msg"`
		RequestID string `json:"request_id"`
		Method    string `json:"method"`
		Path      string `json:"path"`
		Scenario  int    `json:"scenario"`
		Cache     string `json:"cache"`
		Status    int    `json:"status"`
		Bytes     int    `json:"bytes"`
	}
	var recs []record
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if r.Msg == "request" {
			recs = append(recs, r)
		}
	}
	if len(recs) != 4 {
		t.Fatalf("got %d access records, want 4:\n%s", len(recs), buf.String())
	}
	scen0 := soleEngine(t, srv).st.Load().scenIndex["0"] // scenario index for failed=[0]
	for i, want := range []record{
		{Cache: "miss", Status: 200, Scenario: scen0},
		{Cache: "hit", Status: 200, Scenario: scen0},
		{Cache: "hit", Status: 200, Scenario: scen0, RequestID: "caller-id-42"},
		{Cache: "none", Status: 400, Scenario: -1},
	} {
		r := recs[i]
		if r.Cache != want.Cache || r.Status != want.Status || r.Scenario != want.Scenario {
			t.Errorf("record %d = %+v, want cache=%s status=%d scenario=%d", i, r, want.Cache, want.Status, want.Scenario)
		}
		if r.RequestID == "" || r.Method != "GET" || r.Path != "/v1/alloc" {
			t.Errorf("record %d incomplete: %+v", i, r)
		}
		if want.RequestID != "" && r.RequestID != want.RequestID {
			t.Errorf("record %d request id = %q, want %q", i, r.RequestID, want.RequestID)
		}
		if r.Status == 200 && r.Bytes == 0 {
			t.Errorf("record %d has zero bytes", i)
		}
	}

	// The lifecycle event from the initial load is present too.
	if !strings.Contains(buf.String(), `"msg":"artifact loaded"`) {
		t.Errorf("missing artifact-loaded lifecycle event:\n%s", buf.String())
	}
}

func TestAccessLogSampling(t *testing.T) {
	path, _, _, _ := writeArtifact(t)
	var buf syncBuffer
	lg := slog.New(slog.NewJSONHandler(&buf, nil))
	srv, err := New(path, Config{CacheSize: 8, Obs: obs.New(), Log: lg, LogEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const total = 20
	for i := 0; i < total; i++ {
		resp, err := http.Get(ts.URL + "/v1/alloc?failed=0")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	logged := strings.Count(buf.String(), `"msg":"request"`)
	if logged != total/5 {
		t.Fatalf("sampled %d of %d records with LogEvery=5, want %d", logged, total, total/5)
	}
	// Counters are never sampled: all requests are in the collector.
	if s := srv.col.Snapshot().Serve; s.Requests != total {
		t.Fatalf("requests counter = %d, want %d", s.Requests, total)
	}
}

func TestGateWaitCounter(t *testing.T) {
	path, _, _, _ := writeArtifact(t)
	col := obs.New()
	// One worker and no cache: concurrent distinct scenarios must queue.
	srv, err := New(path, Config{CacheSize: 0, Workers: -1, Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	urls := []string{
		ts.URL + "/v1/alloc?failed=0",
		ts.URL + "/v1/alloc?failed=",
		ts.URL + "/v1/alloc?failed=0,1,2",
	}
	var wg sync.WaitGroup
	for round := 0; round < 10; round++ {
		for _, u := range urls {
			wg.Add(1)
			go func(u string) {
				defer wg.Done()
				resp, err := http.Get(u)
				if err != nil {
					t.Errorf("get %s: %v", u, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}(u)
		}
		wg.Wait()
	}
	s := col.Snapshot().Serve
	if s.GateWaits == 0 {
		t.Skip("no gate contention observed on this machine (all solves finished before overlap)")
	}
	if s.GateWaits > s.Recomputes {
		t.Fatalf("gate waits %d exceed recomputes %d", s.GateWaits, s.Recomputes)
	}
}
