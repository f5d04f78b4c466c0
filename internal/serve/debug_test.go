package serve

import (
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"flexile/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden file under testdata/")

// TestDebugRequestsPageGolden renders /debug/requests over fixed traces and
// compares the page byte for byte with testdata/debug_requests.html, and
// over an empty ring with testdata/debug_requests_empty.html. The traces
// put every character the page must escape (" & ' + < > and NUL) into each
// client-controlled field it prints: tenant, path, request id, shed and
// cache.
func TestDebugRequestsPageGolden(t *testing.T) {
	const hostile = "<a href='x'>\"&+\x00"
	at := time.Date(2026, 1, 2, 3, 4, 5, 678_000_000, time.UTC)
	ring := obs.NewTraceRing(4, 2, 2)
	ring.Add(&obs.Trace{
		TraceID: "4bf92f3577b34da6a3ce929d0e0e4736", RequestID: "r-1",
		Method: http.MethodGet, Path: "/v1/alloc?failed=3", Tenant: "acme", Start: at,
		Dur: 2*time.Millisecond + 345*time.Microsecond, Status: 200, Cache: "miss",
		Spans: []obs.SpanRec{
			{Name: "admit", Start: 0, Dur: 1500},
			{Name: "parse", Start: 1500, Dur: 2500},
			{Name: "recompute", Start: 4000, Dur: 2 * time.Millisecond, Nested: true},
			{Name: "lp-solve", Start: 5000, Dur: 300 * time.Microsecond, Nested: true},
			{Name: "lp-solve", Start: 400000, Dur: 250 * time.Microsecond, Nested: true},
			{Name: "cache", Start: 4000, Dur: 800},
			{Name: "write", Start: 2300000, Dur: 45 * time.Microsecond},
		},
	})
	ring.Add(&obs.Trace{
		TraceID: "00f067aa0ba902b700f067aa0ba902b7", RequestID: hostile,
		Method: http.MethodGet, Path: "/v1/alloc?failed=" + hostile, Tenant: hostile,
		Start: at.Add(time.Second), Dur: 1500 * time.Millisecond, Status: 503,
		Cache: hostile, Shed: hostile,
		Spans: []obs.SpanRec{{Name: "admit", Dur: 700}},
	})
	ring.Add(&obs.Trace{
		TraceID: "0af7651916cd43dd8448eb211c80319c", RequestID: "r-3",
		Method: http.MethodPost, Path: "/v1/alloc/batch", Start: at.Add(2 * time.Second),
		Dur: 950 * time.Microsecond, Status: 400,
	})
	checkDebugPage(t, ring, "debug_requests.html")
	checkDebugPage(t, obs.NewTraceRing(1, 1, 1), "debug_requests_empty.html")
}

func checkDebugPage(t *testing.T, ring *obs.TraceRing, name string) {
	t.Helper()
	path, _, _, _ := writeArtifact(t)
	srv, err := New(path, Config{CacheSize: 2, Workers: 1, Ring: ring})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	w := httptest.NewRecorder()
	srv.DebugRequestsHandler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/requests", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "text/html; charset=utf-8" {
		t.Fatalf("Content-Type %q", ct)
	}
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, w.Body.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Body.String(); got != string(want) {
		t.Errorf("page differs from %s:\n%s", golden, got)
	}
}
