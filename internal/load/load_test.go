package load_test

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"flexile/internal/chaos"
	"flexile/internal/load"
	"flexile/internal/obs"
	"flexile/internal/serve"
)

func planCfg(seed uint64) load.Config {
	return load.Config{
		Seed:     seed,
		QPS:      500,
		Duration: 300 * time.Millisecond,
		Batch:    4,
		Tenants:  3,
		Scenarios: map[string][][]int{
			"alpha": {{}, {0}, {1}, {0, 1}},
			"beta":  {{}, {2}},
		},
		HotFraction: 0.8,
		HotSet:      2,
	}
}

// TestBuildPlanDeterministic is the seeded-stream contract: the Plan is a
// pure function of the Config, so equal seeds yield byte-identical plans
// and different seeds diverge.
func TestBuildPlanDeterministic(t *testing.T) {
	a, err := load.BuildPlan(planCfg(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := load.BuildPlan(planCfg(42))
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatal("same seed produced different plans")
	}
	c, err := load.BuildPlan(planCfg(43))
	if err != nil {
		t.Fatal(err)
	}
	cj, _ := json.Marshal(c)
	if string(aj) == string(cj) {
		t.Fatal("different seeds produced identical plans")
	}

	if len(a.Requests) == 0 {
		t.Fatal("empty plan at 500 qps over 300ms")
	}
	cfg := planCfg(42)
	var prev time.Duration = -1
	for i, rq := range a.Requests {
		if rq.At < prev {
			t.Fatalf("request %d fires at %v, before its predecessor at %v", i, rq.At, prev)
		}
		prev = rq.At
		if rq.At >= cfg.Duration {
			t.Fatalf("request %d fires at %v, past the %v schedule", i, rq.At, cfg.Duration)
		}
		if len(rq.Queries) != cfg.Batch {
			t.Fatalf("request %d has %d queries, want %d", i, len(rq.Queries), cfg.Batch)
		}
		if !strings.HasPrefix(rq.Tenant, "load-") {
			t.Fatalf("request %d tenant = %q", i, rq.Tenant)
		}
		for _, q := range rq.Queries {
			keys, ok := cfg.Scenarios[q.Artifact]
			if !ok {
				t.Fatalf("request %d queries unknown artifact %q", i, q.Artifact)
			}
			found := false
			for _, k := range keys {
				if len(k) == len(q.Failed) {
					same := true
					for j := range k {
						if k[j] != q.Failed[j] {
							same = false
							break
						}
					}
					if same {
						found = true
						break
					}
				}
			}
			if !found {
				t.Fatalf("request %d query %v not drawn from artifact %q scenarios", i, q.Failed, q.Artifact)
			}
		}
	}
}

func TestBuildPlanValidation(t *testing.T) {
	for name, mut := range map[string]func(*load.Config){
		"zero-qps":       func(c *load.Config) { c.QPS = 0 },
		"zero-duration":  func(c *load.Config) { c.Duration = 0 },
		"no-scenarios":   func(c *load.Config) { c.Scenarios = nil },
		"empty-artifact": func(c *load.Config) { c.Scenarios = map[string][][]int{"a": {}} },
	} {
		cfg := planCfg(1)
		mut(&cfg)
		if _, err := load.BuildPlan(cfg); err == nil {
			t.Errorf("%s: BuildPlan accepted an invalid config", name)
		}
	}
}

// singles returns the no-failure state plus n single-link failure states.
func singles(n int) [][]int {
	out := [][]int{{}}
	for e := 0; e < n; e++ {
		out = append(out, []int{e})
	}
	return out
}

// TestBuildPlanFrozen pins the planned stream itself, not just its
// determinism: the benchmark's serve-open workload draws its three Poisson
// phases from BuildPlan, so a refactor of the generator that changed one
// draw would silently change that workload's hit/miss mix. The digests
// were computed at the commit before internal/load became the one request
// engine; change them only together with a benchmark re-baseline.
func TestBuildPlanFrozen(t *testing.T) {
	for name, tc := range map[string]struct {
		cfg      load.Config
		requests int
		digest   string
	}{
		// Single-query with tenants and a hot set, as bench/open.go calls it.
		"open": {load.Config{
			Seed: 0x0f1e, QPS: 50, Duration: 2 * time.Second, Tenants: 4,
			Scenarios:   map[string][][]int{"b4": singles(8), "ibm": singles(10)},
			HotFraction: 0.9, HotSet: 6,
		}, 102, "a3c074d7b1b4a8c4eba4b4473fc0973811225309cea91870ae38e000660a2c86"},
		// Batches of 4 over two artifacts.
		"batch": {planCfg(42), 134, "b0633be2820dcb68a2ca25ab49fdceacbd30f9e8805859358afbf691c27fb818"},
	} {
		plan, err := load.BuildPlan(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(plan)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(raw)); len(plan.Requests) != tc.requests || got != tc.digest {
			t.Errorf("%s: %d requests, digest %s; want %d, %s", name, len(plan.Requests), got, tc.requests, tc.digest)
		}
	}
}

// TestRunAgainstServer drives a short seeded plan at a live server — batch
// and single-request modes — and checks the stats account every entry,
// oracle-exact, with no errors or sheds, then fold into a summary.
func TestRunAgainstServer(t *testing.T) {
	h, err := chaos.New(t.TempDir(), serve.Config{CacheSize: 64, Workers: 2, Obs: obs.New()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	scens, err := load.FetchScenarios(ctx, h.TS.URL, "")
	if err != nil {
		t.Fatalf("FetchScenarios: %v", err)
	}

	for name, batch := range map[string]int{"single": 1, "batch": 3} {
		t.Run(name, func(t *testing.T) {
			cfg := load.Config{
				Seed:        9,
				QPS:         400,
				Duration:    250 * time.Millisecond,
				Batch:       batch,
				Tenants:     2,
				Scenarios:   map[string][][]int{"": scens},
				HotFraction: 0.5,
				HotSet:      2,
			}
			plan, err := load.BuildPlan(cfg)
			if err != nil {
				t.Fatal(err)
			}
			stats := load.NewStats(h.Oracle)
			if err := load.Run(ctx, h.TS.URL, plan, cfg, stats.Add); err != nil {
				t.Fatal(err)
			}
			if stats.Requests != len(plan.Requests) {
				t.Errorf("fired %d of %d planned requests", stats.Requests, len(plan.Requests))
			}
			if stats.Entries != stats.Requests*batch {
				t.Errorf("entries = %d, want %d", stats.Entries, stats.Requests*batch)
			}
			if stats.Disconnect+stats.Violated != 0 || len(stats.Shed) != 0 {
				t.Errorf("unloaded server produced %s: %v", stats, stats.Violations)
			}
			if stats.OK != stats.Entries {
				t.Errorf("OK = %d, want every entry (%d)", stats.OK, stats.Entries)
			}

			sum := stats.Summary()
			if got := sum.Hits + sum.Miss + sum.Shared + sum.Dedup; got != stats.OK || sum.Degraded != 0 {
				t.Errorf("dispositions sum to %d (+%d degraded), want OK=%d", got, sum.Degraded, stats.OK)
			}
			if sum.Entries != stats.Entries || sum.OK != stats.OK || sum.Errors != 0 {
				t.Errorf("summary counters diverge from stats: %+v", sum)
			}
			if sum.Shed != 0 || len(sum.FailedIDs) != 0 {
				t.Errorf("summary reports sheds or failures on an unloaded server: %+v", sum)
			}
			if sum.GoodputQPS <= 0 {
				t.Errorf("goodput_qps = %v, want > 0", sum.GoodputQPS)
			}
			if sum.P50Ms <= 0 || sum.P99Ms < sum.P50Ms || sum.P999Ms < sum.P99Ms {
				t.Errorf("latency percentiles malformed: %+v", sum)
			}
		})
	}
	if err := h.Quiesce(); err != nil {
		t.Fatal(err)
	}
}

// instant answers every request at once, so any latency a run reports is
// the generator's own doing.
func instant(t *testing.T) *httptest.Server {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`))
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestRunTimesFromDueTime stalls the generator and checks the stall is
// charged to the request it delayed. The dispatcher walks the plan in
// order, so a request planned at 0 behind one planned at 60ms is sent 60ms
// after it was due — a deterministic generator stall. Timed from send (as
// Run did before) that request reports a sub-millisecond latency and no
// lag; timed from its due time both carry the stall, and the lag bound
// marks the run invalid.
func TestRunTimesFromDueTime(t *testing.T) {
	srv := instant(t)
	const stall = 60 * time.Millisecond
	plan := &load.Plan{Requests: []load.Request{
		{At: stall, ID: "on-time", Queries: []load.Query{{}}},
		{At: 0, ID: "stalled", Queries: []load.Query{{}}},
	}}
	stats := load.NewStats(nil)
	samples := make(map[string]load.Sample)
	err := load.Run(context.Background(), srv.URL, plan, load.Config{}, func(sm load.Sample) {
		samples[sm.Request.ID] = sm
		stats.Add(sm)
	})
	if err != nil {
		t.Fatal(err)
	}
	late, ok := samples["stalled"], samples["on-time"]
	if lag, lat := late.Sent-late.Due, late.Done-late.Due; lag < 50*time.Millisecond || lat < 50*time.Millisecond {
		t.Errorf("request sent %v after a 60ms stall: lag %v, latency %v; want both >= 50ms", late.Sent, lag, lat)
	}
	if lag := ok.Sent - ok.Due; lag < 0 || lag > 40*time.Millisecond {
		t.Errorf("on-time request: lag %v", lag)
	}
	if stats.Valid() {
		t.Errorf("lags %v pass the %v bound: a stalled generator must invalidate the run", stats.Lags, load.MaxLagP99)
	}
	if sum := stats.Summary(); sum.Valid || sum.LagP99Ms < 50 || sum.P99Ms < 50 {
		t.Errorf("summary hides the stall: %+v", sum)
	}
}

// TestRunCancelled: a cancelled run returns the context's error after the
// launched requests finish, and what it did fire still reports an elapsed
// time (and therefore a goodput).
func TestRunCancelled(t *testing.T) {
	srv := instant(t)
	plan := &load.Plan{Requests: []load.Request{
		{At: 0, Queries: []load.Query{{}}},
		{At: time.Hour, Queries: []load.Query{{}}},
	}}
	ctx, cancel := context.WithCancel(context.Background())
	stats := load.NewStats(nil)
	err := load.Run(ctx, srv.URL, plan, load.Config{}, func(sm load.Sample) {
		stats.Add(sm)
		cancel()
	})
	if err != context.Canceled {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if stats.Requests != 1 || stats.OK != 1 || stats.Elapsed <= 0 || stats.Summary().GoodputQPS <= 0 {
		t.Errorf("cancelled run lost its one answered request: %s elapsed %v", stats, stats.Elapsed)
	}
}
