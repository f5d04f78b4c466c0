package chaos

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"flexile/internal/faultinject"
	"flexile/internal/load"
	"flexile/internal/obs"
	"flexile/internal/serve"
)

// newHarness starts a harness of n artifacts under the test's temp dir.
func newHarness(t *testing.T, cfg serve.Config, n int) *Harness {
	t.Helper()
	h, err := New(t.TempDir(), cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestChaosOverloadStorm: ten clients hammer a single-slot, cache-disabled
// server with 120ms deadlines while every solve takes ~30ms. The server
// must split traffic cleanly into admitted requests (bit-identical bodies,
// bounded latency) and explicit sheds (Retry-After, reason header) — never
// a generic 5xx, and never a leak.
func TestChaosOverloadStorm(t *testing.T) {
	h := newHarness(t, serve.Config{
		CacheSize:   0,
		Workers:     -1,
		Obs:         obs.New(),
		ComputeHook: func(int) error { time.Sleep(30 * time.Millisecond); return nil },
	}, 1)
	rep := h.Storm(StormConfig{
		Seed:     1,
		Clients:  10,
		Requests: 12,
		Deadline: 120 * time.Millisecond,
		Jitter:   2 * time.Millisecond,
	})
	t.Logf("overload storm: %s p99=%v", rep, rep.P99OK())

	if len(rep.Violations) > 0 {
		t.Fatalf("overload contract violated:\n%v", rep.Violations)
	}
	if rep.OK == 0 || rep.Sheds() == 0 {
		t.Fatalf("storm must produce both admitted and shed requests: %s", rep)
	}
	if rep.Shed["quota"]+rep.Shed["breaker"] != 0 {
		t.Fatalf("only deadline sheds possible here: %s", rep)
	}
	if p99 := rep.P99OK(); p99 > time.Second {
		t.Fatalf("admitted p99 = %v: queueing leaked into admitted requests", p99)
	}
	must(t, h.Quiesce())
}

// TestChaosCorruptReloadStorm: a reload cycler alternates runs of corrupt
// artifact writes with restores while clients keep querying. The old
// artifact must keep serving bit-identically through every failed reload,
// the reload breaker must trip and suppress attempts, and a valid reload
// must eventually land once the cooldown admits a probe.
func TestChaosCorruptReloadStorm(t *testing.T) {
	collector := obs.New()
	h := newHarness(t, serve.Config{
		CacheSize:        4,
		Obs:              collector,
		BreakerThreshold: 3,
		BreakerCooldown:  150 * time.Millisecond,
	}, 1)

	var suppressed atomic.Int64
	cyclerDone := make(chan struct{})
	go func() {
		defer close(cyclerDone)
		for i := 0; i < 25; i++ {
			write := h.Corrupt
			if i%5 == 4 {
				write = h.Restore
			}
			if err := write(h.Names[0]); err != nil {
				t.Error(err)
			}
			if err := h.Srv.Reload(); errors.Is(err, serve.ErrReloadSuppressed) {
				suppressed.Add(1)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	rep := h.Storm(StormConfig{Seed: 2, Clients: 6, Requests: 25, Jitter: 3 * time.Millisecond})
	<-cyclerDone
	t.Logf("corrupt-reload storm: %s suppressed=%d", rep, suppressed.Load())

	if len(rep.Violations) > 0 {
		t.Fatalf("serving diverged during reload churn:\n%v", rep.Violations)
	}
	if rep.OK == 0 || rep.Degraded+rep.Sheds() != 0 {
		t.Fatalf("reload churn must not touch the serving path: %s", rep)
	}

	// Recovery: restore the artifact and retry until the breaker's cooldown
	// admits the probe that reloads it.
	must(t, h.Restore(h.Names[0]))
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := h.Srv.Reload(); err == nil {
			break
		} else if errors.Is(err, serve.ErrReloadSuppressed) {
			suppressed.Add(1)
		} else {
			t.Fatalf("recovery reload failed outright: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("reload breaker never admitted the recovery probe")
		}
		time.Sleep(20 * time.Millisecond)
	}
	for q := 0; q < h.Scenarios(); q++ {
		must(t, h.Get(q))
	}

	m := collector.Snapshot().Serve
	if m.ReloadErrors < 3 || m.BreakerTrips < 1 || m.ReloadsSkipped < 1 {
		t.Fatalf("reload breaker never engaged: %+v (suppressed=%d)", m, suppressed.Load())
	}
	if suppressed.Load() != m.ReloadsSkipped {
		t.Fatalf("suppressed reloads seen by cycler (%d) != counter (%d)", suppressed.Load(), m.ReloadsSkipped)
	}
	must(t, h.Quiesce())
}

// TestChaosFailingSolveBreakerStorm: every solve fails while the fault
// window is open. States warmed before the window must degrade to their
// marked stale answers (never a 5xx), the recompute breaker must trip,
// cold states must shed with the breaker reason, and once the faults
// clear the breaker's probe must restore live bit-identical serving.
func TestChaosFailingSolveBreakerStorm(t *testing.T) {
	var faultsOn atomic.Bool
	var attempts atomic.Int64
	inj := faultinject.New(11, 1.0, faultinject.SingularBasis)
	collector := obs.New()
	h := newHarness(t, serve.Config{
		CacheSize:        0, // no response cache: every request exercises the solve path
		Obs:              collector,
		BreakerThreshold: 3,
		BreakerCooldown:  600 * time.Millisecond,
		ComputeHook: func(q int) error {
			if !faultsOn.Load() {
				return nil
			}
			return inj.Hook(q, int(attempts.Add(1)))
		},
	}, 1)

	// Warm the last-known-good store for all but the last scenario; the
	// cold one is how we observe the breaker-shed path.
	cold := h.Scenarios() - 1
	for q := 0; q < cold; q++ {
		must(t, h.Get(q))
	}

	faultsOn.Store(true)
	rep := h.Storm(StormConfig{
		Seed:     3,
		Clients:  4,
		Requests: 10,
		Scenarios: func() []int {
			warm := make([]int, cold)
			for q := range warm {
				warm[q] = q
			}
			return warm
		}(),
	})
	t.Logf("failing-solve storm: %s", rep)
	if len(rep.Violations) > 0 {
		t.Fatalf("degraded serving violated the contract:\n%v", rep.Violations)
	}
	if rep.OK != 0 || rep.Degraded == 0 {
		t.Fatalf("with every solve failing, warmed states must all degrade: %s", rep)
	}
	if m := collector.Snapshot().Serve; m.BreakerTrips < 1 || m.RecomputeErrors < 3 {
		t.Fatalf("recompute breaker never engaged: %+v", m)
	}

	// The cold scenario has no stale answer: with the breaker open it must
	// shed with the breaker reason, not 500.
	client := load.NewClient(h.TS.URL, 1)
	defer client.Close()
	res := client.Fire(context.Background(), load.Request{Queries: []load.Query{h.Query("", cold)}}, 0)
	must(t, res.Err)
	if out := res.Outcomes[0]; out.Status != http.StatusServiceUnavailable || out.Shed != "breaker" {
		t.Fatalf("cold state under open breaker: %d shed=%q body=%s", out.Status, out.Shed, out.Body)
	} else if out.RetryAfter < 1 {
		t.Fatalf("breaker shed without Retry-After: %d", out.RetryAfter)
	}

	// Faults clear, the cooldown passes, one probe closes the breaker, and
	// every scenario — including the cold one — serves live and exact.
	faultsOn.Store(false)
	time.Sleep(700 * time.Millisecond)
	for q := 0; q < h.Scenarios(); q++ {
		must(t, h.Get(q))
	}
	must(t, h.Quiesce())
}

// TestChaosClientDisconnectStorm: clients with a timeout shorter than the
// solve abandon their requests mid-flight. Detached recomputation means
// the abandoned solves still complete and fill the cache, the server
// never errors, and nothing leaks.
func TestChaosClientDisconnectStorm(t *testing.T) {
	collector := obs.New()
	h := newHarness(t, serve.Config{
		CacheSize:   64,
		Obs:         collector,
		ComputeHook: func(int) error { time.Sleep(25 * time.Millisecond); return nil },
	}, 1)
	rep := h.Storm(StormConfig{
		Seed:     4,
		Clients:  8,
		Requests: 6,
		Timeout:  10 * time.Millisecond, // shorter than any solve: guaranteed disconnects
	})
	t.Logf("disconnect storm: %s", rep)
	if len(rep.Violations) > 0 {
		t.Fatalf("disconnect storm violations:\n%v", rep.Violations)
	}
	if rep.Disconnect == 0 {
		t.Fatalf("storm produced no disconnects: %s", rep)
	}

	// Every abandoned solve must have landed: a full sweep now is all
	// exact answers, and the counters show completed recomputes with no
	// errors.
	for q := 0; q < h.Scenarios(); q++ {
		must(t, h.Get(q))
	}
	m := collector.Snapshot().Serve
	if m.RecomputeErrors != 0 || m.Degraded != 0 {
		t.Fatalf("disconnects caused server-side failures: %+v", m)
	}
	if m.Recomputes == 0 || m.CacheHits == 0 {
		t.Fatalf("detached recomputes did not warm the cache: %+v", m)
	}
	must(t, h.Quiesce())
}

// TestChaosRegistryFlappingArtifact: mixed-tenant batch traffic hammers a
// three-artifact registry while one artifact flaps corrupt on disk and
// fleet reloads keep firing. The flapping artifact's reload breaker must
// trip without touching its siblings — every healthy artifact keeps
// serving bit-identical 200s and reloading cleanly — and the whole fleet
// must quiesce without leaking a goroutine.
func TestChaosRegistryFlappingArtifact(t *testing.T) {
	h := newHarness(t, serve.Config{
		CacheSize:        32,
		Workers:          4,
		Obs:              obs.New(),
		BreakerThreshold: 3,
		BreakerCooldown:  time.Minute, // long: the tripped breaker must stay open for assertion
	}, 3)
	flapping := h.Names[0]

	// Flap concurrently with the storm: corrupt the artifact on disk, then
	// drive fleet reloads. The first BreakerThreshold attempts fail and trip
	// the per-artifact reload breaker; further attempts are suppressed.
	// Healthy artifacts reload successfully on every sweep.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := h.Corrupt(flapping); err != nil {
			t.Error(err)
		}
		for i := 0; i < 5; i++ {
			if err := h.Srv.Reload(); err == nil {
				t.Error("fleet reload with corrupt artifact reported no error")
			} else if !strings.Contains(err.Error(), flapping) {
				t.Errorf("reload error does not name the corrupt artifact: %v", err)
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err := h.Restore(flapping); err != nil {
			t.Error(err)
		}
	}()

	rep := h.Storm(StormConfig{
		Seed:     7,
		Clients:  8,
		Requests: 25,
		Batch:    6,
		Tenant:   func(w int) string { return "tenant-" + strconv.Itoa(w%3) },
	})
	<-done
	t.Logf("registry storm: %s", rep)

	if len(rep.Violations) > 0 {
		t.Fatalf("registry storm contract violated:\n%v", rep.Violations)
	}
	if rep.Disconnect != 0 {
		t.Fatalf("transport failures with no client timeout configured: %s", rep)
	}
	// Every artifact — including the flapping one, which keeps serving its
	// retained state through failed reloads — produced bit-identical 200s.
	for _, name := range h.Names {
		if rep.Artifact[name] == 0 {
			t.Fatalf("artifact %s served no verified 200s: %s", name, rep)
		}
	}
	if len(rep.Shed) != 0 {
		t.Fatalf("no quotas or deadlines configured, yet sheds occurred: %s", rep)
	}

	// Breaker isolation: only the flapping artifact's reload breaker opened.
	status, err := h.Status()
	must(t, err)
	flap := status[flapping]
	if flap.ReloadErrors < int64(3) {
		t.Fatalf("flapping artifact reload errors = %d, want >= 3 (breaker threshold)", flap.ReloadErrors)
	}
	if flap.ReloadBreaker != "open" {
		t.Fatalf("flapping artifact reload breaker = %q, want open", flap.ReloadBreaker)
	}
	if flap.ReloadsSkipped == 0 {
		t.Fatalf("open breaker never suppressed a reload: %+v", flap)
	}
	for _, name := range h.Names[1:] {
		row := status[name]
		if row.ReloadErrors != 0 || row.ReloadBreaker != "closed" {
			t.Fatalf("healthy artifact %s polluted by sibling's failures: %+v", name, row)
		}
		if row.Reloads < 5 {
			t.Fatalf("healthy artifact %s reloads = %d, want >= 5 (one per sweep)", name, row.Reloads)
		}
		if row.Requests == 0 {
			t.Fatalf("healthy artifact %s saw no traffic: %+v", name, row)
		}
	}
	must(t, h.Quiesce())
}
