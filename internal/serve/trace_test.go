package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"flexile/internal/obs"
)

func newTracedServer(t *testing.T, every int) *Server {
	t.Helper()
	path, _, _, _ := writeArtifact(t)
	srv, err := New(path, Config{
		CacheSize:  8,
		Workers:    2,
		Ring:       obs.NewTraceRing(0, 0, 0),
		TraceEvery: every,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// TestTracedMissRequest drives one cold /v1/alloc through a traced server
// and checks the resulting /debug/requests entry end to end: identity
// headers, the joined traceparent, the named stage spans, and the tiling
// invariant — non-nested span durations sum to (approximately) the served
// latency.
func TestTracedMissRequest(t *testing.T) {
	srv := newTracedServer(t, 1)
	sentTrace := strings.Repeat("ab", 16)
	sentSpan := strings.Repeat("cd", 8)

	req := httptest.NewRequest(http.MethodGet, "/v1/alloc?failed=1", nil)
	req.Header.Set("X-Request-Id", "req-trace-test")
	req.Header.Set("X-Tenant", "tenant-a")
	req.Header.Set("traceparent", "00-"+sentTrace+"-"+sentSpan+"-01")
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)

	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("X-Request-Id"); got != "req-trace-test" {
		t.Fatalf("request id not echoed: %q", got)
	}
	tp := w.Header().Get("traceparent")
	if !strings.HasPrefix(tp, "00-"+sentTrace+"-") {
		t.Fatalf("response traceparent %q did not keep our trace id", tp)
	}
	if strings.Contains(tp, sentSpan) {
		t.Fatalf("response traceparent %q reuses the caller's span id", tp)
	}

	recent := srv.cfg.Ring.Recent()
	if len(recent) != 1 {
		t.Fatalf("ring holds %d traces, want 1", len(recent))
	}
	s := recent[0]
	if s.TraceID != sentTrace || s.ParentSpan != sentSpan || s.RequestID != "req-trace-test" {
		t.Fatalf("trace identity: trace=%s parent=%s req=%s", s.TraceID, s.ParentSpan, s.RequestID)
	}
	if s.Tenant != "tenant-a" || s.Method != "GET" || s.Path != "/v1/alloc" || s.Cache != "miss" {
		t.Fatalf("trace summary: %+v", s)
	}

	var tiling []obs.SpanRec
	seen := map[string]bool{}
	for _, sp := range s.Spans {
		seen[sp.Name] = true
		if !sp.Nested {
			tiling = append(tiling, sp)
		}
	}
	// The recompute descends: the allocation's class round, its levels and
	// their LP solves are nested spans on the same trace.
	for _, name := range []string{"admit", "parse", "cache", "flight", "write", "recompute", "class-round", "level", "lp-solve"} {
		if !seen[name] {
			t.Errorf("missing span %q (have %v)", name, s.Spans)
		}
	}
	// The lapper's one cursor makes the tiling exact in integer
	// nanoseconds: each span starts where the previous one ended, the first
	// no earlier than the request and the last no later than its end.
	// (A stable sort keeps recording order for a zero-length span.)
	sort.SliceStable(tiling, func(i, j int) bool { return tiling[i].Start < tiling[j].Start })
	end := tiling[0].Start
	for _, sp := range tiling {
		if sp.Start != end || sp.Start < 0 {
			t.Fatalf("span %q starts at %v, previous span ended at %v: %+v", sp.Name, sp.Start, end, tiling)
		}
		end = sp.Start + sp.Dur
	}
	if end > s.Dur {
		t.Fatalf("tiling spans end at %v, after the served latency %v", end, s.Dur)
	}
	covered := end - tiling[0].Start
	t.Logf("tiling spans cover %v of %v served (%.1f%%)", covered, s.Dur, 100*float64(covered)/float64(s.Dur))
}

// TestTraceSampling checks the 1-in-N default path and the sampled-parent
// override.
func TestTraceSampling(t *testing.T) {
	srv := newTracedServer(t, 4)
	for i := 0; i < 8; i++ {
		w := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/v1/alloc?failed=0", nil)
		srv.ServeHTTP(w, req)
		if w.Header().Get("X-Request-Id") == "" {
			t.Fatal("untraced request lost its id")
		}
	}
	if got := srv.cfg.Ring.Total(); got != 2 {
		t.Fatalf("1-in-4 sampling traced %d of 8", got)
	}

	// A sampled incoming traceparent forces tracing regardless of the rate.
	req := httptest.NewRequest(http.MethodGet, "/v1/alloc?failed=0", nil)
	req.Header.Set("traceparent", "00-"+strings.Repeat("1f", 16)+"-"+strings.Repeat("2e", 8)+"-01")
	srv.ServeHTTP(httptest.NewRecorder(), req)
	if got := srv.cfg.Ring.Total(); got != 3 {
		t.Fatalf("sampled parent not forced: total %d", got)
	}

	// An unsampled parent does not force tracing.
	req = httptest.NewRequest(http.MethodGet, "/v1/alloc?failed=0", nil)
	req.Header.Set("traceparent", "00-"+strings.Repeat("1f", 16)+"-"+strings.Repeat("2e", 8)+"-00")
	srv.ServeHTTP(httptest.NewRecorder(), req)
	if got := srv.cfg.Ring.Total(); got != 3 {
		t.Fatalf("unsampled parent forced a trace: total %d", got)
	}
}

// TestBatchTraceSpans checks that a traceparent on POST /v1/alloc/batch
// survives the fan-out: one trace covers the envelope with a nested
// per-entry cache span for every query, repeated states included.
func TestBatchTraceSpans(t *testing.T) {
	srv := newTracedServer(t, 1)
	sentTrace := strings.Repeat("4d", 16)
	body := `{"queries":[{"failed":[1]},{"failed":[2]},{"failed":[1]}]}`
	req := httptest.NewRequest(http.MethodPost, "/v1/alloc/batch", strings.NewReader(body))
	req.Header.Set("traceparent", "00-"+sentTrace+"-"+strings.Repeat("5c", 8)+"-01")
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", w.Code, w.Body.String())
	}
	var resp BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("batch answered %d queries", len(resp.Results))
	}

	recent := srv.cfg.Ring.Recent()
	if len(recent) != 1 {
		t.Fatalf("ring holds %d traces, want 1", len(recent))
	}
	s := recent[0]
	if s.TraceID != sentTrace {
		t.Fatalf("batch trace id %s, want %s", s.TraceID, sentTrace)
	}
	entries := 0
	for _, sp := range s.Spans {
		if sp.Nested && strings.HasPrefix(sp.Name, "cache:") {
			entries++
		}
	}
	if entries != 3 {
		t.Fatalf("batch trace has %d per-entry spans, want 3: %+v", entries, s.Spans)
	}
}

// TestDebugRequestsHandler covers the three renderings, the escaping of
// hostile tenant strings, and the error paths (no ring, unknown format).
func TestDebugRequestsHandler(t *testing.T) {
	srv := newTracedServer(t, 1)
	hostile := `<script>alert('x')</script>`
	req := httptest.NewRequest(http.MethodGet, "/v1/alloc?failed=1", nil)
	req.Header.Set("X-Tenant", hostile)
	srv.ServeHTTP(httptest.NewRecorder(), req)

	h := srv.DebugRequestsHandler()
	get := func(target string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
		return w
	}

	html := get("/debug/requests")
	if html.Code != http.StatusOK {
		t.Fatalf("html status %d", html.Code)
	}
	page := html.Body.String()
	if !strings.Contains(page, "flexile request traces") {
		t.Fatal("html page missing title")
	}
	if strings.Contains(page, hostile) {
		t.Fatal("hostile tenant string reached the page unescaped")
	}
	if !strings.Contains(page, "&lt;script&gt;") {
		t.Fatal("escaped tenant string not rendered")
	}
	// The miss's LP solves render as one group, not one entry each.
	if n := strings.Count(page, "[lp-solve ×"); n == 0 || strings.Count(page, "lp-solve") != n {
		t.Fatal("lp-solve spans not grouped on the html page")
	}

	js := get("/debug/requests?format=json")
	var ring struct {
		Total  uint64       `json:"total"`
		Recent []*obs.Trace `json:"recent"`
	}
	if err := json.Unmarshal(js.Body.Bytes(), &ring); err != nil {
		t.Fatalf("json rendering: %v", err)
	}
	if ring.Total != 1 || len(ring.Recent) != 1 || ring.Recent[0].Tenant != hostile {
		t.Fatalf("json ring: total=%d recent=%d", ring.Total, len(ring.Recent))
	}

	chrome := get("/debug/requests?format=chrome")
	var timeline struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Body.Bytes(), &timeline); err != nil {
		t.Fatalf("chrome rendering: %v", err)
	}
	if len(timeline.TraceEvents) < 6 {
		t.Fatalf("chrome timeline has %d events", len(timeline.TraceEvents))
	}

	if w := get("/debug/requests?format=bogus"); w.Code != http.StatusBadRequest {
		t.Fatalf("unknown format: status %d", w.Code)
	}

	// With no ring configured the page answers 404, not an empty page.
	path, _, _, _ := writeArtifact(t)
	bare, err := New(path, Config{CacheSize: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	w := httptest.NewRecorder()
	bare.DebugRequestsHandler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/requests", nil))
	if w.Code != http.StatusNotFound {
		t.Fatalf("no-ring handler: status %d", w.Code)
	}
}

// TestRingEvictionUnderLoad hammers a tiny ring through the real serving
// path and checks the eviction order is newest-first by request id.
func TestRingEvictionUnderLoad(t *testing.T) {
	path, _, _, _ := writeArtifact(t)
	srv, err := New(path, Config{
		CacheSize:  8,
		Workers:    2,
		Ring:       obs.NewTraceRing(4, 2, 2),
		TraceEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < 10; i++ {
		req := httptest.NewRequest(http.MethodGet, "/v1/alloc?failed=0", nil)
		req.Header.Set("X-Request-Id", fmt.Sprintf("load-%d", i))
		srv.ServeHTTP(httptest.NewRecorder(), req)
	}
	recent := srv.cfg.Ring.Recent()
	if len(recent) != 4 {
		t.Fatalf("ring holds %d, want 4", len(recent))
	}
	for i, s := range recent {
		if want := fmt.Sprintf("load-%d", 9-i); s.RequestID != want {
			t.Fatalf("recent[%d] = %s, want %s", i, s.RequestID, want)
		}
	}
	if total := srv.cfg.Ring.Total(); total != 10 {
		t.Fatalf("Total %d, want 10", total)
	}
}
