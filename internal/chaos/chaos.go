// Package chaos is what a storm test needs besides the request engine
// (internal/load): the fixture — n small triangle artifacts on disk, a live
// serve.Server over them on a loopback listener, and the library's own
// answer for every (artifact, scenario) as the oracle — the faults a test
// can schedule against it (Corrupt, Restore), and the invariants checked
// from the outside afterwards (Get: live and oracle-exact; Quiesce: nothing
// leaked). The serving contract itself is load.Contract; storms are
// load.Storm runs whose requests Harness.Storm draws from the seed.
//
// Determinism contract: client behavior (artifact and scenario choice,
// think-time jitter) is a pure function of StormConfig.Seed, so a chaos
// failure reproduces under the same seed. Slow solves inside the server
// are scripted separately with a Config.ComputeHook by the individual
// storm tests.
package chaos

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"flexile/internal/failure"
	"flexile/internal/load"
	flexscheme "flexile/internal/scheme/flexile"
	"flexile/internal/serve"
	"flexile/internal/te"
	"flexile/internal/topo"
	"flexile/internal/tunnels"
)

// Fixture is a set of triangle artifacts on disk with their oracle bodies.
// Artifact i carries demands scaled by 1+2i, so the oracle bodies differ
// per artifact and a cross-artifact routing mixup surfaces as a bit
// mismatch; all of them enumerate the same failure scenarios.
type Fixture struct {
	Dir   string
	Names []string

	blobs  map[string][]byte   // valid artifact bytes per name
	oracle map[string][][]byte // name → scenario → marshaled Online answer
	failed [][]int             // scenario → failure state
	index  map[string]int      // fmt.Sprint(failure state) → scenario
}

// Build solves one triangle instance per name, writes each as
// <dir>/<name>.flxa and computes its oracle body for every scenario.
func Build(dir string, names ...string) (*Fixture, error) {
	f := &Fixture{
		Dir:    dir,
		Names:  names,
		blobs:  make(map[string][]byte),
		oracle: make(map[string][][]byte),
		index:  make(map[string]int),
	}
	for i, name := range names {
		inst := te.NewInstance(topo.Triangle(), []te.Class{
			{Name: "single", Beta: 0.99, Weight: 1, Tunnels: tunnels.SingleClass(3)},
		})
		scale := float64(1 + 2*i)
		inst.Demand[0][0] = scale
		inst.Demand[0][1] = scale
		inst.LinkProbs = []float64{0.01, 0.01, 0.01}
		inst.Scenarios = failure.Enumerate(inst.LinkProbs, 0)
		opt := flexscheme.Options{Workers: 2}
		off, err := flexscheme.Offline(inst, opt)
		if err != nil {
			return nil, fmt.Errorf("chaos: offline solve (%s): %w", name, err)
		}
		art, err := serve.Build(inst, off, opt)
		if err != nil {
			return nil, fmt.Errorf("chaos: build artifact (%s): %w", name, err)
		}
		f.blobs[name] = art.Encode()
		if err := f.Restore(name); err != nil {
			return nil, err
		}
		f.failed = make([][]int, len(inst.Scenarios))
		bodies := make([][]byte, len(inst.Scenarios))
		for q, scen := range inst.Scenarios {
			res, err := flexscheme.Online(inst, off, q, opt)
			if err != nil {
				return nil, fmt.Errorf("chaos: oracle Online(%s, %d): %w", name, q, err)
			}
			bodies[q], err = json.Marshal(serve.AllocResponse{Scenario: q, Prob: scen.Prob, Frac: res.Frac, X: res.X})
			if err != nil {
				return nil, err
			}
			f.failed[q] = scen.Failed
			f.index[fmt.Sprint(scen.Failed)] = q
		}
		f.oracle[name] = bodies
	}
	return f, nil
}

func (f *Fixture) path(name string) string { return filepath.Join(f.Dir, name+serve.ArtifactExt) }

// Corrupt overwrites one artifact file with garbage, so its next reload
// must fail; Restore writes the valid bytes back.
func (f *Fixture) Corrupt(name string) error {
	return os.WriteFile(f.path(name), []byte("chaos: not an artifact"), 0o644)
}

func (f *Fixture) Restore(name string) error {
	return os.WriteFile(f.path(name), f.blobs[name], 0o644)
}

// Scenarios reports how many failure scenarios each artifact enumerates.
func (f *Fixture) Scenarios() int { return len(f.failed) }

// Query returns the query for scenario q of the named artifact; "" is the
// bare route, which a one-artifact server resolves to its only artifact.
func (f *Fixture) Query(name string, q int) load.Query {
	return load.Query{Artifact: name, Failed: f.failed[q]}
}

// Oracle is the fixture's load.Oracle: the library's answer for q, or nil
// for a failure state the fixture does not enumerate.
func (f *Fixture) Oracle(q load.Query) []byte {
	name := q.Artifact
	if name == "" {
		name = f.Names[0]
	}
	if s, ok := f.index[fmt.Sprint(q.Failed)]; ok && f.oracle[name] != nil {
		return f.oracle[name][s]
	}
	return nil
}

// Harness is a Fixture being served: the live server and listener, and the
// goroutine baseline captured before anything was started.
type Harness struct {
	*Fixture
	Srv *serve.Server
	TS  *httptest.Server

	baseline int
}

// New builds n artifacts named art0..art<n-1> in a fresh directory under
// dir and starts a server with cfg over them on a loopback listener. The
// goroutine baseline is captured first, so Quiesce can later prove the
// whole storm unwound.
func New(dir string, cfg serve.Config, n int) (*Harness, error) {
	baseline := runtime.NumGoroutine()
	// A directory of its own: the server treats every *.flxa beside the
	// fixture's as one more artifact to serve.
	dir, err := os.MkdirTemp(dir, "chaos-*")
	if err != nil {
		return nil, err
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("art%d", i)
	}
	fix, err := Build(dir, names...)
	if err == nil {
		var srv *serve.Server
		if srv, err = serve.NewRegistry(dir, cfg); err == nil {
			return &Harness{Fixture: fix, Srv: srv, TS: httptest.NewServer(srv), baseline: baseline}, nil
		}
	}
	os.RemoveAll(dir)
	return nil, err
}

// Close stops the listener and the server and removes the artifacts.
func (h *Harness) Close() {
	h.TS.Close()
	h.Srv.Close()
	os.RemoveAll(h.Dir)
}

// Get issues one clean request for scenario q on the bare route (no
// deadline, no tenant) and fails unless it is a 200 bit-identical to the
// oracle — the post-storm sanity probe.
func (h *Harness) Get(q int) error {
	client := load.NewClient(h.TS.URL, 1)
	defer client.Close()
	rq := load.Request{Queries: []load.Query{h.Query("", q)}}
	res := client.Fire(context.Background(), rq, 0)
	if res.Err != nil {
		return fmt.Errorf("chaos: probe scenario %d: %w", q, res.Err)
	}
	if class, err := load.Contract(h.Oracle, rq, 0, res.Outcomes[0]); class != load.Exact {
		out := res.Outcomes[0]
		return fmt.Errorf("chaos: probe scenario %d: want an exact 200, got status %d shed=%q (%v)",
			q, out.Status, out.Shed, err)
	}
	return nil
}

// Status fetches the live per-artifact status rows from GET /v1/artifacts.
func (h *Harness) Status() (map[string]serve.ArtifactStatus, error) {
	resp, err := http.Get(h.TS.URL + "/v1/artifacts")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var rows []serve.ArtifactStatus
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		return nil, err
	}
	out := make(map[string]serve.ArtifactStatus, len(rows))
	for _, row := range rows {
		out[row.Name] = row
	}
	return out, nil
}

// Quiesce closes the harness, then polls until the goroutine count returns
// to the pre-harness baseline (plus a small allowance for the runtime's own
// background workers). A storm that leaked a waiter, a detached recompute,
// or a watcher fails here.
func (h *Harness) Quiesce() error {
	h.Close()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= h.baseline+2 {
			return nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("chaos: goroutine leak: %d live, baseline %d\n%s", n, h.baseline, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// StormConfig scripts one client storm. All randomness derives from Seed.
type StormConfig struct {
	Seed     uint64
	Clients  int
	Requests int // per client
	// Batch is queries per request: <= 1 sends single GETs, more sends
	// batch envelopes.
	Batch    int
	Deadline time.Duration // X-Request-Deadline header; 0 sends none
	Tenant   func(client int) string
	// Scenarios restricts the storm to these scenario indices; nil means
	// all enumerated scenarios.
	Scenarios []int
	// Jitter and Timeout are load.Storm's: maximum think time between a
	// client's requests, and the client-side timeout that makes disconnects.
	Jitter  time.Duration
	Timeout time.Duration
}

// Storm runs cfg.Clients concurrent clients, each issuing cfg.Requests
// requests of seeded-random queries — across the artifacts when there are
// several, on the bare route when there is one — and returns every outcome
// classified against the oracle.
func (h *Harness) Storm(cfg StormConfig) *load.Stats {
	batch := max(cfg.Batch, 1)
	scenarios := cfg.Scenarios
	if len(scenarios) == 0 {
		for q := 0; q < h.Scenarios(); q++ {
			scenarios = append(scenarios, q)
		}
	}
	stats := load.NewStats(h.Oracle)
	load.Storm{
		Seed:     cfg.Seed,
		Clients:  cfg.Clients,
		Deadline: cfg.Deadline,
		Jitter:   cfg.Jitter,
		Timeout:  cfg.Timeout,
		Next: func(r *load.Rand, w, i int) (load.Request, bool) {
			if i >= cfg.Requests {
				return load.Request{}, false
			}
			rq := load.Request{Queries: make([]load.Query, batch)}
			if cfg.Tenant != nil {
				rq.Tenant = cfg.Tenant(w)
			}
			for k := range rq.Queries {
				name := ""
				if len(h.Names) > 1 {
					name = h.Names[r.Intn(len(h.Names))]
				}
				rq.Queries[k] = h.Query(name, scenarios[r.Intn(len(scenarios))])
			}
			return rq, true
		},
	}.Run(context.Background(), h.TS.URL, stats.Add)
	return stats
}
