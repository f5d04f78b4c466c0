package serve

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
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

// TestDeadlineShedOnArrival: once the gate is saturated and has hold-time
// history, a cache miss whose predicted wait exceeds its deadline is shed
// immediately with 503 + Retry-After instead of queueing.
func TestDeadlineShedOnArrival(t *testing.T) {
	path, _, _, _ := writeArtifact(t)
	block := make(chan struct{})
	var blockScen atomic.Int64
	blockScen.Store(-1)
	collector := obs.New()
	srv, err := New(path, Config{
		CacheSize: 8,
		Workers:   -1, // one gate slot
		Obs:       collector,
		ComputeHook: func(q int) error {
			if int64(q) == blockScen.Load() {
				<-block
			} else {
				time.Sleep(40 * time.Millisecond) // seed the hold-time EWMA
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Seed hold-time history with one deliberately slow solve.
	if resp, body := doAlloc(t, ts.URL, "0", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed request: %d %s", resp.StatusCode, body)
	}

	// Saturate the single gate slot with a solve that blocks until released.
	blockScen.Store(1)
	occupied := make(chan struct{})
	go func() {
		defer close(occupied)
		doAlloc(t, ts.URL, "1", nil)
	}()
	waitFor(t, func() bool { return soleEngine(t, srv).gate.InUse() == 1 })

	// A miss with a deadline far below the ~40ms EWMA must be shed on
	// arrival: no queueing, no recompute.
	resp, body := doAlloc(t, ts.URL, "2", map[string]string{"X-Request-Deadline": "1ms"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("predicted-late miss: %d %s, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Flexile-Shed") != "deadline" {
		t.Fatalf("shed header = %q, want deadline", resp.Header.Get("X-Flexile-Shed"))
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q", resp.Header.Get("Retry-After"))
	}

	// A cache hit is still served instantly regardless of the deadline.
	if resp, _ := doAlloc(t, ts.URL, "0", map[string]string{"X-Request-Deadline": "1ms"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("cache hit shed: %d", resp.StatusCode)
	}

	close(block)
	<-occupied

	m := collector.Snapshot().Serve
	if m.DeadlineShed != 1 {
		t.Fatalf("DeadlineShed = %d, want 1", m.DeadlineShed)
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

// TestBreakerDegradedAndRecovery walks the recompute breaker through its
// whole state machine: consecutive solve failures degrade to stale answers
// and trip the breaker; while open, known states serve stale (without
// touching the solve path) and unknown states shed; after the cooldown one
// probe closes it again.
func TestBreakerDegradedAndRecovery(t *testing.T) {
	path, _, _, _ := writeArtifact(t)
	var fail atomic.Bool
	var hookCalls atomic.Int64
	collector := obs.New()
	srv, err := New(path, Config{
		CacheSize:        8,
		Obs:              collector,
		BreakerThreshold: 2,
		BreakerCooldown:  300 * time.Millisecond,
		ComputeHook: func(int) error {
			hookCalls.Add(1)
			if fail.Load() {
				return errors.New("scripted solve failure")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Healthy pass: fills the cache and the last-known-good store.
	_, good := doAlloc(t, ts.URL, "0", nil)

	// Reload the same artifact: the per-artifact cache resets but the
	// last-known-good store survives — exactly the situation degraded
	// serving exists for.
	if err := srv.Reload(); err != nil {
		t.Fatal(err)
	}

	fail.Store(true)
	for i := 0; i < 2; i++ {
		resp, body := doAlloc(t, ts.URL, "0", nil)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Flexile-Degraded") != "stale" {
			t.Fatalf("failure %d: %d degraded=%q body=%s", i, resp.StatusCode, resp.Header.Get("X-Flexile-Degraded"), body)
		}
		if !bytes.Equal(body, good) {
			t.Fatalf("degraded answer diverged from last known good")
		}
	}

	// Threshold reached: breaker is open. Known state → stale without
	// invoking the solve; unknown state → shed with Retry-After.
	calls := hookCalls.Load()
	resp, body := doAlloc(t, ts.URL, "0", nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Flexile-Degraded") != "stale" || !bytes.Equal(body, good) {
		t.Fatalf("open breaker, known state: %d %s", resp.StatusCode, body)
	}
	if hookCalls.Load() != calls {
		t.Fatal("open breaker still invoked the solve path")
	}
	resp, _ = doAlloc(t, ts.URL, "1", nil)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("X-Flexile-Shed") != "breaker" {
		t.Fatalf("open breaker, unknown state: %d shed=%q", resp.StatusCode, resp.Header.Get("X-Flexile-Shed"))
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q", resp.Header.Get("Retry-After"))
	}

	// Cooldown passes, the fault clears: one probe closes the breaker and
	// live serving resumes bit-identically.
	fail.Store(false)
	time.Sleep(350 * time.Millisecond)
	resp, body = doAlloc(t, ts.URL, "0", nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Flexile-Degraded") != "" {
		t.Fatalf("post-recovery: %d degraded=%q", resp.StatusCode, resp.Header.Get("X-Flexile-Degraded"))
	}
	if !bytes.Equal(body, good) {
		t.Fatal("post-recovery answer differs")
	}

	m := collector.Snapshot().Serve
	if m.BreakerTrips != 1 || m.RecomputeErrors != 2 || m.Degraded != 3 || m.BreakerRejects != 2 {
		t.Fatalf("breaker counters = %+v, want 1 trip / 2 errors / 3 degraded / 2 rejects", m)
	}
}

// TestReloadBreakerSuppression: consecutive reload failures open the
// reload breaker, which then refuses further attempts outright (the old
// artifact keeps serving) until the cooldown admits a probe.
func TestReloadBreakerSuppression(t *testing.T) {
	path, _, _, _ := writeArtifact(t)
	s, err := solvedTriangle()
	if err != nil {
		t.Fatal(err)
	}
	collector := obs.New()
	srv, err := New(path, Config{
		CacheSize:        8,
		Obs:              collector,
		BreakerThreshold: 2,
		BreakerCooldown:  300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	before := get(t, ts.URL+"/v1/alloc?failed=0", "miss")

	if err := os.WriteFile(path, []byte("corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := srv.Reload(); err == nil || errors.Is(err, ErrReloadSuppressed) {
			t.Fatalf("corrupt reload %d: %v, want a real load error", i, err)
		}
	}
	// Breaker open: even a now-valid file is refused without being read.
	if err := os.WriteFile(path, s.blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := srv.Reload(); !errors.Is(err, ErrReloadSuppressed) {
		t.Fatalf("open reload breaker: %v, want ErrReloadSuppressed", err)
	}
	if !bytes.Equal(get(t, ts.URL+"/v1/alloc?failed=0", "hit"), before) {
		t.Fatal("suppressed reload disturbed serving")
	}

	// Cooldown admits one probe; the valid file closes the breaker.
	time.Sleep(350 * time.Millisecond)
	if err := srv.Reload(); err != nil {
		t.Fatalf("probe reload: %v", err)
	}
	if !bytes.Equal(get(t, ts.URL+"/v1/alloc?failed=0", "miss"), before) {
		t.Fatal("post-recovery artifact serves different bytes")
	}

	m := collector.Snapshot().Serve
	if m.ReloadsSkipped != 1 || m.BreakerTrips != 1 || m.ReloadErrors != 2 {
		t.Fatalf("reload breaker counters = %+v, want 1 skipped / 1 trip / 2 errors", m)
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
