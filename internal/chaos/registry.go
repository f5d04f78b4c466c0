package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"flexile/internal/failure"
	flexscheme "flexile/internal/scheme/flexile"
	"flexile/internal/serve"
	"flexile/internal/te"
	"flexile/internal/topo"
	"flexile/internal/tunnels"
)

// RegistryHarness owns a multi-artifact registry under test: n scaled
// triangle artifacts on disk (each with different demands, so the oracle
// bodies differ per artifact and cross-artifact routing mixups surface as
// bit mismatches), the live registry and listener, per-artifact oracle
// bodies, and the goroutine baseline for Quiesce.
type RegistryHarness struct {
	Reg   *serve.Server
	TS    *httptest.Server
	Dir   string
	Names []string

	blobs    map[string][]byte // valid artifact bytes per name
	oracle   map[string][][]byte
	failed   [][]int // scenario index → failure state (same enumeration for all)
	baseline int
}

// NewRegistryHarness builds n distinct triangle artifacts named art0..artN
// in a fresh directory, computes every artifact's oracle allocation for
// every scenario, and starts a registry with cfg over a loopback listener.
func NewRegistryHarness(t testing.TB, cfg serve.Config, n int) *RegistryHarness {
	t.Helper()
	baseline := runtime.NumGoroutine()
	h := &RegistryHarness{
		Dir:    t.TempDir(),
		blobs:  make(map[string][]byte),
		oracle: make(map[string][][]byte),
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("art%d", i)
		tp := topo.Triangle()
		inst := te.NewInstance(tp, []te.Class{
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
			t.Fatalf("chaos: offline solve (%s): %v", name, err)
		}
		art, err := serve.Build(inst, off, opt)
		if err != nil {
			t.Fatalf("chaos: build artifact (%s): %v", name, err)
		}
		blob := art.Encode()
		if err := os.WriteFile(filepath.Join(h.Dir, name+serve.ArtifactExt), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		h.blobs[name] = blob
		h.Names = append(h.Names, name)
		bodies := make([][]byte, len(inst.Scenarios))
		for q, scen := range inst.Scenarios {
			res, err := flexscheme.Online(inst, off, q, opt)
			if err != nil {
				t.Fatalf("chaos: oracle Online(%s, %d): %v", name, q, err)
			}
			body, err := json.Marshal(serve.AllocResponse{Scenario: q, Prob: scen.Prob, Frac: res.Frac, X: res.X})
			if err != nil {
				t.Fatal(err)
			}
			bodies[q] = body
		}
		h.oracle[name] = bodies
		if h.failed == nil {
			h.failed = make([][]int, len(inst.Scenarios))
			for q, scen := range inst.Scenarios {
				h.failed[q] = scen.Failed
			}
		}
	}

	reg, err := serve.NewRegistry(h.Dir, cfg)
	if err != nil {
		t.Fatalf("chaos: NewRegistry: %v", err)
	}
	h.Reg = reg
	h.TS = httptest.NewServer(reg)
	h.baseline = baseline
	return h
}

// Scenarios reports how many failure scenarios each artifact enumerates.
func (h *RegistryHarness) Scenarios() int { return len(h.failed) }

// Corrupt overwrites one artifact file with garbage so its next reload
// fails; Restore writes the valid bytes back.
func (h *RegistryHarness) Corrupt(t testing.TB, name string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(h.Dir, name+serve.ArtifactExt), []byte("chaos: not an artifact"), 0o644); err != nil {
		t.Fatal(err)
	}
}

func (h *RegistryHarness) Restore(t testing.TB, name string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(h.Dir, name+serve.ArtifactExt), h.blobs[name], 0o644); err != nil {
		t.Fatal(err)
	}
}

// Status fetches the live per-artifact status rows from GET /v1/artifacts.
func (h *RegistryHarness) Status(t testing.TB) map[string]serve.ArtifactStatus {
	t.Helper()
	resp, err := http.Get(h.TS.URL + "/v1/artifacts")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rows []serve.ArtifactStatus
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]serve.ArtifactStatus, len(rows))
	for _, row := range rows {
		out[row.Name] = row
	}
	return out
}

// Quiesce closes the listener and registry, then polls the goroutine count
// back to the pre-harness baseline (see Harness.Quiesce).
func (h *RegistryHarness) Quiesce(t testing.TB) {
	t.Helper()
	h.TS.Close()
	h.Reg.Close()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= h.baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("chaos: goroutine leak: %d live, baseline %d\n%s", n, h.baseline, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// RegistryStormConfig scripts a mixed-tenant batch storm across the
// registry's artifacts. All client randomness derives from Seed.
type RegistryStormConfig struct {
	Seed     uint64
	Clients  int
	Requests int // batch requests per client
	Batch    int // queries per batch request
	Tenant   func(client int) string
}

// RegistryReport accumulates a registry storm's per-entry outcomes, keyed
// by artifact so breaker-isolation assertions can tell healthy names from
// the flapping one.
type RegistryReport struct {
	mu         sync.Mutex
	OK         map[string]int // non-degraded bit-identical 200 entries
	Dedup      map[string]int
	Degraded   map[string]int
	Shed       map[string]int // by shed reason, all artifacts
	Violations []string
}

func (r *RegistryReport) violate(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.Violations) < 20 {
		r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
	}
}

// String renders a one-line storm summary for test logs.
func (r *RegistryReport) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return fmt.Sprintf("ok=%v dedup=%v degraded=%v shed=%v violations=%d",
		r.OK, r.Dedup, r.Degraded, r.Shed, len(r.Violations))
}

// BatchStorm drives cfg.Clients concurrent clients, each issuing
// cfg.Requests batch envelopes of cfg.Batch seeded-random (artifact,
// scenario) queries, and classifies every entry: a non-degraded 200 must
// be bit-identical to that artifact's oracle, sheds must carry a reason,
// anything else is a violation.
func (h *RegistryHarness) BatchStorm(cfg RegistryStormConfig) *RegistryReport {
	rep := &RegistryReport{
		OK:       make(map[string]int),
		Dedup:    make(map[string]int),
		Degraded: make(map[string]int),
		Shed:     make(map[string]int),
	}
	client := &http.Client{}
	var wg sync.WaitGroup
	for w := 0; w < cfg.Clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := &rng{s: cfg.Seed ^ (uint64(w+1) * 0x9e3779b97f4a7c15)}
			for i := 0; i < cfg.Requests; i++ {
				h.oneBatch(client, cfg, rep, r, w)
			}
		}(w)
	}
	wg.Wait()
	return rep
}

func (h *RegistryHarness) oneBatch(client *http.Client, cfg RegistryStormConfig, rep *RegistryReport, r *rng, w int) {
	type query struct {
		Artifact string `json:"artifact"`
		Failed   []int  `json:"failed"`
	}
	queries := make([]query, cfg.Batch)
	for i := range queries {
		name := h.Names[r.intn(len(h.Names))]
		queries[i] = query{Artifact: name, Failed: h.failed[r.intn(len(h.failed))]}
	}
	body, err := json.Marshal(map[string]any{"queries": queries})
	if err != nil {
		rep.violate("client %d: marshal: %v", w, err)
		return
	}
	req, err := http.NewRequest(http.MethodPost, h.TS.URL+"/v1/alloc/batch", bytes.NewReader(body))
	if err != nil {
		rep.violate("client %d: build request: %v", w, err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if cfg.Tenant != nil {
		req.Header.Set("X-Tenant", cfg.Tenant(w))
	}
	resp, err := client.Do(req)
	if err != nil {
		rep.violate("client %d: transport: %v", w, err)
		return
	}
	data, err := readAllClose(resp)
	if err != nil {
		rep.violate("client %d: read: %v", w, err)
		return
	}
	if resp.StatusCode != http.StatusOK {
		rep.violate("client %d: envelope status %d: %.120s", w, resp.StatusCode, data)
		return
	}
	var env struct {
		Results []struct {
			Status   int             `json:"status"`
			Artifact string          `json:"artifact"`
			Scenario int             `json:"scenario"`
			Cache    string          `json:"cache"`
			Degraded bool            `json:"degraded"`
			Shed     string          `json:"shed"`
			Body     json.RawMessage `json:"body"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		rep.violate("client %d: envelope decode: %v", w, err)
		return
	}
	if len(env.Results) != len(queries) {
		rep.violate("client %d: %d results for %d queries", w, len(env.Results), len(queries))
		return
	}
	for i, e := range env.Results {
		name := queries[i].Artifact
		switch {
		case e.Status == http.StatusOK && e.Degraded:
			rep.mu.Lock()
			rep.Degraded[name]++
			rep.mu.Unlock()
		case e.Status == http.StatusOK:
			if e.Scenario < 0 || e.Scenario >= len(h.oracle[name]) {
				rep.violate("client %d entry %d: scenario %d out of range", w, i, e.Scenario)
				continue
			}
			if !bytes.Equal([]byte(e.Body), h.oracle[name][e.Scenario]) {
				rep.violate("client %d entry %d: %s scenario %d body differs from oracle", w, i, name, e.Scenario)
				continue
			}
			rep.mu.Lock()
			if e.Cache == "dedup" {
				rep.Dedup[name]++
			} else {
				rep.OK[name]++
			}
			rep.mu.Unlock()
		case e.Status == http.StatusServiceUnavailable || e.Status == http.StatusTooManyRequests:
			if e.Shed == "" {
				rep.violate("client %d entry %d: %d without shed reason", w, i, e.Status)
				continue
			}
			rep.mu.Lock()
			rep.Shed[e.Shed]++
			rep.mu.Unlock()
		default:
			rep.violate("client %d entry %d: %s status %d", w, i, name, e.Status)
		}
	}
}

func readAllClose(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}
