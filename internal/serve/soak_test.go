package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"flexile/internal/obs"
	flexscheme "flexile/internal/scheme/flexile"
)

// TestServeSoakFaultReload hammers the server from several directions at
// once: querier goroutines sweep every scenario over a loopback listener
// while a second goroutine cycles SIGHUP reloads (alternating the artifact
// file between corrupt and valid content) and a seeded fault rule fails or
// panics inside the load path. The server must keep answering
// every query with the exact artifact allocation throughout — a failed or
// faulted reload leaves the previous artifact serving — and the whole run
// must be clean under -race.
func TestServeSoakFaultReload(t *testing.T) {
	path, inst, off, opt := writeArtifact(t)
	s, err := solvedTriangle()
	if err != nil {
		t.Fatal(err)
	}

	// Faults fire only after the initial load so New is deterministic. The
	// rule is a pure function of the seed and the attempt number: a quarter
	// of the attempts fail, half of those by an error return and half by a
	// panic, so both the error and the panic-recovery path run.
	var faultsOn atomic.Bool
	const seed = 7
	collector := obs.New()
	srv, err := New(path, Config{
		CacheSize: 4, // smaller than the scenario count: eviction churn under load
		Obs:       collector,
		loadHook: func(attempt int) error {
			if !faultsOn.Load() {
				return nil
			}
			switch (uint64(attempt) + seed) * 0x9e3779b97f4a7c15 >> 61 { // one of 8 buckets
			case 0:
				return errors.New("injected load failure")
			case 1:
				panic("injected load panic")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	faultsOn.Store(true)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// The cycler below signals this very process. Hold SIGHUP for the whole
	// test, so that one still in flight when stopHUP's signal.Stop would
	// otherwise restore the default disposition lands in this channel
	// instead of terminating the test binary.
	held := make(chan os.Signal, 1)
	signal.Notify(held, syscall.SIGHUP)
	t.Cleanup(func() { signal.Stop(held) })

	var reloadErrs atomic.Int64
	stopHUP := srv.WatchHUP(func(error) { reloadErrs.Add(1) })
	defer stopHUP()

	// Expected body per scenario, precomputed from the library: every
	// served answer must match bit-for-bit no matter how reloads interleave.
	expected := make(map[int][]byte, len(inst.Scenarios))
	urls := make([]string, len(inst.Scenarios))
	for q, scen := range inst.Scenarios {
		res, err := flexscheme.Online(inst, off, q, opt)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(AllocResponse{Scenario: q, Prob: scen.Prob, Frac: res.Frac, X: res.X})
		if err != nil {
			t.Fatal(err)
		}
		expected[q] = body
		var parts []string
		for _, e := range scen.Failed {
			parts = append(parts, strconv.Itoa(e))
		}
		urls[q] = ts.URL + "/v1/alloc?failed=" + strings.Join(parts, ",")
	}

	const queriers = 4
	const sweeps = 40
	var wg sync.WaitGroup
	for w := 0; w < queriers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < sweeps; i++ {
				q := (i*queriers + w) % len(urls)
				resp, err := http.Get(urls[q])
				if err != nil {
					t.Errorf("querier %d: %v", w, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("querier %d: read: %v", w, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("querier %d scenario %d: status %d: %s", w, q, resp.StatusCode, body)
					return
				}
				if !bytes.Equal(body, expected[q]) {
					t.Errorf("querier %d scenario %d: body diverged during reload churn", w, q)
					return
				}
			}
		}(w)
	}

	// Reload cycler: flip the artifact file between corrupt and valid and
	// SIGHUP after each write. Signals may coalesce — that's fine, the
	// queriers' bit-identity assertion is what matters.
	wg.Add(1)
	go func() {
		defer wg.Done()
		corrupt := []byte("definitely not an artifact")
		for i := 0; i < 20; i++ {
			content := corrupt
			if i%2 == 1 {
				content = s.blob
			}
			if err := os.WriteFile(path, content, 0o644); err != nil {
				t.Errorf("cycler: %v", err)
				return
			}
			if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
				t.Errorf("cycler: SIGHUP: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	stopHUP()

	// Deterministic tail: a corrupt-file reload must fail, then a clean
	// reload with faults off must restore a fully working server.
	faultsOn.Store(false)
	if err := os.WriteFile(path, []byte("corrupt"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := srv.Reload(); err == nil {
		t.Fatal("corrupt reload succeeded")
	}
	if err := os.WriteFile(path, s.blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := srv.Reload(); err != nil {
		t.Fatalf("final reload: %v", err)
	}
	final := get(t, urls[0], "miss")
	if !bytes.Equal(final, expected[0]) {
		t.Fatal("post-soak allocation differs")
	}

	m := collector.Snapshot().Serve
	if m.Requests != queriers*sweeps+1 || m.BadRequests != 0 {
		t.Fatalf("request counters = %+v, want %d requests and no bad ones", m, queriers*sweeps+1)
	}
	if m.Reloads < 3 || m.ReloadErrors < 1 {
		t.Fatalf("reload counters = %+v", m)
	}
	if m.CacheHits+m.CacheMisses != m.Requests {
		t.Fatalf("cache counters don't add up: %+v", m)
	}
}

// TestServeSoakSustainedOverload drives far more concurrent demand than
// the single-slot recompute gate can serve, with caching disabled so every
// request is a full solve, and checks the overload contract end to end:
// every refusal is an explicit shed (503 + Retry-After + X-Flexile-Shed),
// every success is bit-identical to the library allocation, the latency of
// admitted requests stays bounded by their deadline instead of growing
// with the queue, and the goroutine count returns to its baseline once the
// storm passes (nothing leaked by detached recomputes or expired waiters).
func TestServeSoakSustainedOverload(t *testing.T) {
	path, inst, off, opt := writeArtifact(t)
	baseline := runtime.NumGoroutine()

	const holdFor = 20 * time.Millisecond
	const deadline = "150ms"
	collector := obs.New()
	srv, err := New(path, Config{
		CacheSize:   0,  // every request recomputes: sustained pressure
		Workers:     -1, // one gate slot: trivially saturated
		Obs:         collector,
		ComputeHook: func(int) error { time.Sleep(holdFor); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)

	expected := make(map[int][]byte, len(inst.Scenarios))
	urls := make([]string, len(inst.Scenarios))
	for q, scen := range inst.Scenarios {
		res, err := flexscheme.Online(inst, off, q, opt)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(AllocResponse{Scenario: q, Prob: scen.Prob, Frac: res.Frac, X: res.X})
		if err != nil {
			t.Fatal(err)
		}
		expected[q] = body
		var parts []string
		for _, e := range scen.Failed {
			parts = append(parts, strconv.Itoa(e))
		}
		urls[q] = ts.URL + "/v1/alloc?failed=" + strings.Join(parts, ",")
	}

	const clients = 12
	const perClient = 15
	var (
		mu        sync.Mutex
		okLats    []time.Duration
		successes int
		sheds     int
	)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				q := (i*clients + w) % len(urls)
				req, err := http.NewRequest(http.MethodGet, urls[q], nil)
				if err != nil {
					t.Errorf("client %d: %v", w, err)
					return
				}
				req.Header.Set("X-Request-Deadline", deadline)
				begin := time.Now()
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Errorf("client %d: %v", w, err)
					return
				}
				lat := time.Since(begin)
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("client %d: read: %v", w, err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					if !bytes.Equal(body, expected[q]) {
						t.Errorf("client %d scenario %d: body diverged under overload", w, q)
						return
					}
					mu.Lock()
					successes++
					okLats = append(okLats, lat)
					mu.Unlock()
				case http.StatusServiceUnavailable:
					if resp.Header.Get("X-Flexile-Shed") != "deadline" {
						t.Errorf("client %d: shed reason %q", w, resp.Header.Get("X-Flexile-Shed"))
						return
					}
					if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
						t.Errorf("client %d: shed without usable Retry-After (%q)", w, resp.Header.Get("Retry-After"))
						return
					}
					mu.Lock()
					sheds++
					mu.Unlock()
				default:
					// The overload contract: refusals are explicit sheds,
					// never generic 5xx.
					t.Errorf("client %d scenario %d: status %d: %s", w, q, resp.StatusCode, body)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if successes == 0 || sheds == 0 {
		t.Fatalf("storm produced %d successes / %d sheds; want both > 0", successes, sheds)
	}
	// Admitted requests are bounded by deadline + one solve + slack; the
	// generous cap still catches unbounded queueing, which would run to
	// seconds here.
	sort.Slice(okLats, func(i, j int) bool { return okLats[i] < okLats[j] })
	if p99 := okLats[len(okLats)*99/100]; p99 > time.Second {
		t.Fatalf("admitted-request p99 = %v; overload is leaking into admitted latency", p99)
	}

	m := collector.Snapshot().Serve
	if m.Requests != clients*perClient {
		t.Fatalf("Requests = %d, want %d", m.Requests, clients*perClient)
	}
	if m.DeadlineExpired != int64(sheds) {
		t.Fatalf("DeadlineExpired %d doesn't match observed %d sheds", m.DeadlineExpired, sheds)
	}
	if m.RecomputeErrors != 0 {
		t.Fatalf("clean overload must not produce errors: %+v", m)
	}

	// Quiesce: detached recomputes finish, connections close, and the
	// goroutine count returns to its pre-storm baseline.
	eng := soleEngine(t, srv)
	st := eng.st.Load()
	waitFor(t, func() bool { return st.flight.InFlight() == 0 && eng.gate.InUse() == 0 })
	ts.Close()
	srv.Close()
	http.DefaultClient.CloseIdleConnections()
	waitFor(t, func() bool { return runtime.NumGoroutine() <= baseline+2 })
}
