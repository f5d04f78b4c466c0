package serve

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"flexile/internal/obs"
)

// doAlloc issues one allocation GET with optional headers and returns the
// response with its body already read and the connection drained.
func doAlloc(t *testing.T, base, failed string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/alloc?failed="+failed, nil)
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
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestTenantQuota: a tenant that bursts past its token bucket is refused
// with 429 + Retry-After while other tenants keep being served.
func TestTenantQuota(t *testing.T) {
	path, _, _, _ := writeArtifact(t)
	collector := obs.New()
	srv, err := New(path, Config{CacheSize: 8, Obs: collector, TenantRate: 0.5, TenantBurst: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var rejects int
	for i := 0; i < 5; i++ {
		resp, body := doAlloc(t, ts.URL, "0", map[string]string{"X-Tenant": "alice"})
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			rejects++
			if resp.Header.Get("X-Flexile-Shed") != "quota" {
				t.Fatalf("shed header = %q, want quota", resp.Header.Get("X-Flexile-Shed"))
			}
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
				t.Fatalf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
			}
		default:
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	if rejects != 3 {
		t.Fatalf("alice: %d rejects from a burst of 5 with bucket of 2, want 3", rejects)
	}

	// A different tenant has its own bucket; the anonymous pool is its own
	// tenant too.
	if resp, body := doAlloc(t, ts.URL, "0", map[string]string{"X-Tenant": "bob"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("bob refused alongside alice: %d %s", resp.StatusCode, body)
	}
	if resp, body := doAlloc(t, ts.URL, "0", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("anonymous refused alongside alice: %d %s", resp.StatusCode, body)
	}

	m := collector.Snapshot().Serve
	if m.QuotaRejects != int64(rejects) {
		t.Fatalf("QuotaRejects = %d, want %d", m.QuotaRejects, rejects)
	}
	// Quota rejects are still requests, and never touch the cache path.
	if m.Requests != 7 || m.CacheHits+m.CacheMisses != m.Requests-m.QuotaRejects {
		t.Fatalf("counters inconsistent: %+v", m)
	}
}

// TestDeadlineHeader: the X-Request-Deadline header accepts Go durations
// and bare millisecond integers, and rejects garbage with 400.
func TestDeadlineHeader(t *testing.T) {
	path, _, _, _ := writeArtifact(t)
	srv, err := New(path, Config{CacheSize: 8, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, good := range []string{"5s", "1500ms", "250", "0"} { // "0" = no deadline
		if resp, body := doAlloc(t, ts.URL, "0", map[string]string{"X-Request-Deadline": good}); resp.StatusCode != http.StatusOK {
			t.Fatalf("deadline %q: %d %s", good, resp.StatusCode, body)
		}
	}
	for _, bad := range []string{"soon", "-5s", "-250", "1.5"} {
		if resp, _ := doAlloc(t, ts.URL, "0", map[string]string{"X-Request-Deadline": bad}); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("deadline %q: %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestDeadlineDetachedRecompute: a waiter whose deadline expires gets 503,
// but the recomputation it initiated still runs to completion and fills
// the cache — the next request for the same state is a hit.
func TestDeadlineDetachedRecompute(t *testing.T) {
	path, _, _, _ := writeArtifact(t)
	release := make(chan struct{})
	collector := obs.New()
	srv, err := New(path, Config{
		CacheSize: 8,
		Obs:       collector,
		ComputeHook: func(int) error {
			<-release
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	done := make(chan *http.Response, 1)
	go func() {
		resp, _ := doAlloc(t, ts.URL, "0", map[string]string{"X-Request-Deadline": "30ms"})
		done <- resp
	}()
	resp := <-done
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("X-Flexile-Shed") != "deadline" {
		t.Fatalf("expired waiter: %d shed=%q, want 503/deadline", resp.StatusCode, resp.Header.Get("X-Flexile-Shed"))
	}

	// Let the detached solve finish; its side effects must land.
	close(release)
	waitFor(t, func() bool { return soleEngine(t, srv).st.Load().cache.len() == 1 })
	if resp, _ := doAlloc(t, ts.URL, "0", nil); resp.Header.Get("X-Flexile-Cache") != "hit" {
		t.Fatalf("detached solve did not fill the cache: %q", resp.Header.Get("X-Flexile-Cache"))
	}

	m := collector.Snapshot().Serve
	if m.DeadlineExpired != 1 || m.Recomputes != 1 {
		t.Fatalf("counters = %+v, want 1 expired / 1 recompute", m)
	}
}

// TestReloadLandsAfterFailures: reload failures never suppress the next
// attempt, however many come in a row. The old artifact keeps serving
// through the failures, and the first reload after the fault clears swaps
// the new state in.
func TestReloadLandsAfterFailures(t *testing.T) {
	path, _, _, _ := writeArtifact(t)
	var fail atomic.Bool
	collector := obs.New()
	srv, err := New(path, Config{
		CacheSize: 8,
		Obs:       collector,
		loadHook: func(int) error {
			if fail.Load() {
				return errors.New("scripted load failure")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	loadedAt := func() string {
		var info struct {
			LoadedAt string `json:"loaded_at"`
		}
		getJSON(t, ts.URL+"/v1/info", &info)
		return info.LoadedAt
	}

	before := get(t, ts.URL+"/v1/alloc?failed=0", "miss")
	first := loadedAt()
	fail.Store(true)
	for i := 0; i < 3; i++ {
		if err := srv.Reload(); err == nil {
			t.Fatalf("failing reload %d reported no error", i)
		}
	}
	if !bytes.Equal(get(t, ts.URL+"/v1/alloc?failed=0", "hit"), before) || loadedAt() != first {
		t.Fatal("failed reloads disturbed the serving state")
	}

	fail.Store(false)
	if err := srv.Reload(); err != nil {
		t.Fatalf("first reload after the fault cleared: %v", err)
	}
	if loadedAt() == first {
		t.Fatal("successful reload did not swap in a new state")
	}
	if !bytes.Equal(get(t, ts.URL+"/v1/alloc?failed=0", "miss"), before) {
		t.Fatal("reloaded artifact serves different bytes")
	}

	m := collector.Snapshot().Serve
	if m.Reloads != 5 || m.ReloadErrors != 3 {
		t.Fatalf("reload counters = %+v, want 5 reloads / 3 errors", m)
	}
}

// TestDrainFlipsReadyFirst: BeginDrain makes /readyz report 503 while
// /healthz and in-flight allocation serving stay up — the load balancer
// stops sending traffic before the listener goes away.
func TestDrainFlipsReadyFirst(t *testing.T) {
	path, _, _, _ := writeArtifact(t)
	srv, err := New(path, Config{CacheSize: 8, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain readyz: %v %v", resp, err)
	}
	resp.Body.Close()

	srv.BeginDrain()
	if !srv.draining.Load() {
		t.Fatal("Draining() false after BeginDrain")
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz: %v %v, want 503", resp, err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("draining healthz: %v %v, want 200", resp, err)
	}
	resp.Body.Close()
	if resp, body := doAlloc(t, ts.URL, "0", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("draining alloc: %d %s", resp.StatusCode, body)
	}
}

// waitFor polls cond for up to 2s; the soak and admission tests use it in
// place of fixed sleeps for cross-goroutine visibility.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 2s")
}
