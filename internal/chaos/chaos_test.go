package chaos

import (
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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
	if rep.Shed["quota"] != 0 {
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
// every failure must be counted, and the first reload after each restore
// must land.
func TestChaosCorruptReloadStorm(t *testing.T) {
	collector := obs.New()
	h := newHarness(t, serve.Config{CacheSize: 4, Obs: collector}, 1)

	var failures atomic.Int64
	cyclerDone := make(chan struct{})
	go func() {
		defer close(cyclerDone)
		for i := 0; i < 25; i++ {
			restore := i%5 == 4
			write := h.Corrupt
			if restore {
				write = h.Restore
			}
			if err := write(h.Names[0]); err != nil {
				t.Error(err)
			}
			err := h.Srv.Reload()
			if err != nil {
				failures.Add(1)
			}
			if restore && err != nil {
				t.Errorf("reload %d after restore: %v", i, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	rep := h.Storm(StormConfig{Seed: 2, Clients: 6, Requests: 25, Jitter: 3 * time.Millisecond})
	<-cyclerDone
	t.Logf("corrupt-reload storm: %s failures=%d", rep, failures.Load())

	if len(rep.Violations) > 0 {
		t.Fatalf("serving diverged during reload churn:\n%v", rep.Violations)
	}
	if rep.OK == 0 || rep.Sheds() != 0 {
		t.Fatalf("reload churn must not touch the serving path: %s", rep)
	}

	// The cycler ended on a restore, so the live state is the valid one.
	for q := 0; q < h.Scenarios(); q++ {
		must(t, h.Get(q))
	}

	m := collector.Snapshot().Serve
	if m.ReloadErrors != failures.Load() {
		t.Fatalf("reload errors %d, want the %d failures seen", m.ReloadErrors, failures.Load())
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
	if m.RecomputeErrors != 0 {
		t.Fatalf("disconnects caused server-side failures: %+v", m)
	}
	if m.Recomputes == 0 || m.CacheHits == 0 {
		t.Fatalf("detached recomputes did not warm the cache: %+v", m)
	}
	must(t, h.Quiesce())
}

// TestChaosRegistryFlappingArtifact: mixed-tenant batch traffic hammers a
// three-artifact registry while one artifact flaps corrupt on disk and
// fleet reloads keep firing. The flapping artifact's reload failures must
// stay its own — every healthy artifact keeps serving bit-identical 200s
// and reloading cleanly on every sweep — and the whole fleet must quiesce
// without leaking a goroutine.
func TestChaosRegistryFlappingArtifact(t *testing.T) {
	h := newHarness(t, serve.Config{CacheSize: 32, Workers: 4, Obs: obs.New()}, 3)
	flapping := h.Names[0]

	// Flap concurrently with the storm: corrupt the artifact on disk, then
	// drive fleet reloads; each one fails for the flapping artifact alone
	// while the healthy artifacts reload successfully.
	const sweeps = 5
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := h.Corrupt(flapping); err != nil {
			t.Error(err)
		}
		for i := 0; i < sweeps; i++ {
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

	// Isolation: the reload errors are the flapping artifact's, one per
	// sweep; every sibling reloaded on every sweep (plus its first load).
	status, err := h.Status()
	must(t, err)
	if flap := status[flapping]; flap.ReloadErrors != sweeps {
		t.Fatalf("flapping artifact reload errors = %d, want %d (one per sweep)", flap.ReloadErrors, sweeps)
	}
	for _, name := range h.Names[1:] {
		row := status[name]
		if row.ReloadErrors != 0 || row.Reloads != sweeps+1 {
			t.Fatalf("healthy artifact %s: %d reloads / %d errors, want %d / 0", name, row.Reloads, row.ReloadErrors, sweeps+1)
		}
		if row.Requests == 0 {
			t.Fatalf("healthy artifact %s saw no traffic: %+v", name, row)
		}
	}
	must(t, h.Quiesce())
}
