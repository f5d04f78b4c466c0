package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"flexile"
	"flexile/internal/serve"
)

// artifactSpec names one serving artifact: an instance, its default design,
// exported in the format flexile-serve loads.
type artifactSpec struct {
	name string
	inst instanceSpec
}

var (
	ibm20 = artifactSpec{name: "ibm20", inst: instanceSpec{topo: "IBM", scenarios: 20, scale: 1, smokeTopo: "Sprint", smokeScenarios: 6}}
	b420  = artifactSpec{name: "b4-20", inst: instanceSpec{topo: "B4", scenarios: 20, scale: 1, smokeTopo: "B4", smokeScenarios: 6}}
)

// artifact is a built artifactSpec; inst and design stay in memory as the
// oracle's inputs.
type artifact struct {
	name   string
	spec   instanceSpec
	inst   *flexile.Instance
	design *flexile.DesignResult
	blob   []byte
	path   string
}

func buildArtifact(rec *recorder, s artifactSpec, dir string, smoke bool) (*artifact, error) {
	a := &artifact{name: s.name, spec: s.inst, path: filepath.Join(dir, s.name+".flxa")}
	var err error
	rec.timed("experiments.Config.SingleClass "+s.name, -1, 0, func() { a.inst, err = s.inst.build(smoke) })
	if err != nil {
		return nil, err
	}
	rec.timed("flexile.Design "+s.name, -1, 0, func() { a.design, err = flexile.Design(a.inst, flexile.DesignOptions{}) })
	if err != nil {
		return nil, err
	}
	if a.design.Report.Degraded() {
		return nil, fmt.Errorf("artifact %s: design degraded", s.name)
	}
	rec.timed("flexile.ExportArtifact "+s.name, -1, 0, func() {
		a.blob, err = flexile.ExportArtifact(a.inst, a.design, flexile.DesignOptions{})
	})
	if err != nil {
		return nil, err
	}
	return a, os.WriteFile(a.path, a.blob, 0o644)
}

// queryKey identifies one allocation query: an artifact (by position in the
// environment's list) and a scenario index.
type queryKey struct{ art, q int }

// oracle decides whether a served 200 body is correct. The first body seen
// for a key is decoded and its fractions compared with the library's own
// answer, flexile.AllocateOnFailure, within 1e-9; it then becomes the
// reference, and every later body for that key must equal it byte for byte
// (the daemon's contract: hits and misses are bit-identical).
type oracle struct {
	arts []*artifact

	mu   sync.Mutex
	frac map[queryKey][]float64
	ref  map[queryKey][]byte
}

func newOracle(arts []*artifact) *oracle {
	return &oracle{arts: arts, frac: make(map[queryKey][]float64), ref: make(map[queryKey][]byte)}
}

// precompute runs the library's online phase for every key on two
// goroutines (the box has two cores; the daemon may be warming up beside
// it).
func (o *oracle) precompute(ctx context.Context, keys []queryKey) error {
	jobs := make(chan queryKey, len(keys))
	for _, k := range keys {
		jobs <- k
	}
	close(jobs)
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		go func() {
			for k := range jobs {
				if ctx.Err() != nil {
					errs <- ctx.Err()
					return
				}
				o.mu.Lock()
				_, done := o.frac[k]
				o.mu.Unlock()
				if done {
					continue
				}
				a := o.arts[k.art]
				frac, _, err := flexile.AllocateOnFailure(a.inst, a.design, k.q, flexile.DesignOptions{})
				if err != nil {
					errs <- fmt.Errorf("oracle %s scenario %d: %w", a.name, k.q, err)
					return
				}
				o.mu.Lock()
				o.frac[k] = frac
				o.mu.Unlock()
			}
			errs <- nil
		}()
	}
	var first error
	for w := 0; w < 2; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// check verifies one served body.
func (o *oracle) check(k queryKey, body []byte) error {
	o.mu.Lock()
	ref, seen := o.ref[k]
	want := o.frac[k]
	o.mu.Unlock()
	if seen {
		if !bytes.Equal(ref, body) {
			return fmt.Errorf("%s scenario %d: body differs from the reference body", o.arts[k.art].name, k.q)
		}
		return nil
	}
	if want == nil {
		return fmt.Errorf("%s scenario %d: no oracle answer was prepared", o.arts[k.art].name, k.q)
	}
	var got struct {
		Scenario int       `json:"scenario"`
		Frac     []float64 `json:"frac"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("%s scenario %d: %w", o.arts[k.art].name, k.q, err)
	}
	if got.Scenario != k.q || len(got.Frac) != len(want) {
		return fmt.Errorf("%s scenario %d: served scenario %d with %d fractions, want %d", o.arts[k.art].name, k.q, got.Scenario, len(got.Frac), len(want))
	}
	for f := range want {
		if d := math.Abs(got.Frac[f] - want[f]); d > 1e-9 || math.IsNaN(d) {
			return fmt.Errorf("%s scenario %d flow %d: served fraction %v, library %v", o.arts[k.art].name, k.q, f, got.Frac[f], want[f])
		}
	}
	o.mu.Lock()
	o.ref[k] = append([]byte(nil), body...)
	o.mu.Unlock()
	return nil
}

// corruptOne flips a byte of one stored reference body: the test hook
// behind injectFault "corrupt-ref", which the byte comparison must catch.
func (o *oracle) corruptOne() {
	o.mu.Lock()
	defer o.mu.Unlock()
	for k, b := range o.ref {
		b[len(b)/2] ^= 0x01
		o.ref[k] = b
		return
	}
}

// serveEnv is a running daemon with its artifacts, oracle and client.
type serveEnv struct {
	cfg        *runConfig
	arts       []*artifact
	registry   bool
	d          *daemon
	client     *http.Client
	orc        *oracle
	setupStart time.Time
	hostBefore float64 // the host-speed reference as set-up began
}

// startServe builds the daemon binary and the artifacts, then starts the
// real flexile-serve on loopback: -artifact for one artifact, -artifact-dir
// for several. conns sizes the client's idle-connection pool.
func startServe(ctx context.Context, cfg *runConfig, specs []artifactSpec, conns int, daemonArgs ...string) (*serveEnv, error) {
	e := &serveEnv{cfg: cfg, registry: len(specs) > 1, hostBefore: cfg.host.sample(), setupStart: time.Now()}
	var bin string
	var err error
	cfg.rec.timed("go build flexile-serve", -1, 0, func() { bin, err = buildDaemon(ctx, cfg.root) })
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.tmp, "artifacts")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	for _, s := range specs {
		a, err := buildArtifact(cfg.rec, s, dir, cfg.smoke)
		if err != nil {
			return nil, err
		}
		e.arts = append(e.arts, a)
	}
	e.orc = newOracle(e.arts)
	args := []string{"-artifact", e.arts[0].path}
	if e.registry {
		args = []string{"-artifact-dir", dir}
	}
	cfg.rec.timed("flexile-serve start to /readyz", -1, 0, func() {
		e.d, err = startDaemon(ctx, bin, cfg.tmp, append(args, daemonArgs...)...)
	})
	if err != nil {
		return nil, err
	}
	e.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	return e, nil
}

// setupDone closes the set-up phase: its wall-clock, and the same scaled to
// the reference host speed by the readings taken at both ends of it.
func (e *serveEnv) setupDone() (scaled, wall time.Duration) {
	wall = time.Since(e.setupStart)
	return atReference(wall, e.hostBefore, e.cfg.host.sample()), wall
}

func (e *serveEnv) close() {
	e.client.CloseIdleConnections()
	e.d.stop()
}

// scenarioOrder is the seeded order in which an artifact's scenarios are
// visited.
func (e *serveEnv) scenarioOrder(art int) []int {
	return seededOrder(e.cfg.seed, int64(art), len(e.arts[art].inst.Scenarios))
}

func failedParam(failed []int) string {
	parts := make([]string, len(failed))
	for i, f := range failed {
		parts[i] = strconv.Itoa(f)
	}
	return strings.Join(parts, ",")
}

// newGet builds the GET for one key. The artifact travels in the
// X-Flexile-Artifact header when the daemon serves a registry.
func (e *serveEnv) newGet(ctx context.Context, k queryKey) (*http.Request, error) {
	a := e.arts[k.art]
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		e.d.base+"/v1/alloc?failed="+failedParam(a.inst.Scenarios[k.q].Failed), nil)
	if err != nil {
		return nil, err
	}
	if e.registry {
		req.Header.Set("X-Flexile-Artifact", a.name)
	}
	return req, nil
}

// response is one HTTP exchange as the client saw it.
type response struct {
	status int
	cache  string // X-Flexile-Cache
	shed   string // X-Flexile-Shed
	retry  string // Retry-After
	body   []byte // valid until buf is reused
}

// do sends req and reads the whole body into buf.
func (e *serveEnv) do(req *http.Request, buf *bytes.Buffer) (response, error) {
	resp, err := e.client.Do(req)
	if err != nil {
		return response{}, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return response{}, err
	}
	return response{
		status: resp.StatusCode,
		cache:  resp.Header.Get("X-Flexile-Cache"),
		shed:   resp.Header.Get("X-Flexile-Shed"),
		retry:  resp.Header.Get("Retry-After"),
		body:   buf.Bytes(),
	}, nil
}

// judge applies the serving contract to one single-query response: an
// oracle-correct 200, or an explicit refusal carrying X-Flexile-Shed and
// Retry-After. Anything else is a failure. shed reports a labelled refusal.
func (e *serveEnv) judge(k queryKey, r response) (shed bool, err error) {
	if r.status == http.StatusOK {
		return false, e.orc.check(k, r.body)
	}
	if r.shed != "" && r.retry != "" {
		return true, nil
	}
	return false, fmt.Errorf("%s scenario %d: status %d without X-Flexile-Shed and Retry-After: %.120s",
		e.arts[k.art].name, k.q, r.status, r.body)
}

// prepare computes the oracle's answers for keys while fetching warm once
// each over one connection (which fills the daemon's cache and establishes
// the reference bodies), then verifies the fetched bodies.
func (e *serveEnv) prepare(ctx context.Context, keys, warm []queryKey) error {
	type fetched struct {
		k queryKey
		r response
	}
	var got []fetched
	var fetchErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		var buf bytes.Buffer
		for _, k := range warm {
			req, err := e.newGet(ctx, k)
			if err != nil {
				fetchErr = err
				return
			}
			id := e.cfg.rec.begin("warm GET /v1/alloc", -1, k.q, 1)
			r, err := e.do(req, &buf)
			e.cfg.rec.end(id)
			if err != nil {
				fetchErr = err
				return
			}
			r.body = append([]byte(nil), r.body...) // buf is reused by the next fetch
			got = append(got, fetched{k, r})
		}
	}()
	var err error
	e.cfg.rec.timed("flexile.AllocateOnFailure (oracle)", -1, 0, func() { err = e.orc.precompute(ctx, keys) })
	<-done
	if err != nil {
		return err
	}
	if fetchErr != nil {
		return fetchErr
	}
	for _, f := range got {
		if shed, err := e.judge(f.k, f.r); err != nil || shed {
			return fmt.Errorf("warm-up %s scenario %d: refused=%v err=%v", e.arts[f.k.art].name, f.k.q, shed, err)
		}
	}
	return nil
}

// traceparent renders a sampled W3C traceparent for request n, which makes
// the daemon record a full request trace for it whatever its sampling rate.
func traceparent(n int) string {
	return fmt.Sprintf("00-%032x-%016x-01", uint64(n)+1, uint64(n)+1)
}

// closedSample is one timed request of a closed loop.
type closedSample struct {
	ms     float64
	units  int // queries the request carried (1, or 32 for a batch)
	bad    int // queries whose answer failed the oracle
	traced bool
}

// closedPlan is what differs between the three closed-loop workloads.
type closedPlan struct {
	specs      []artifactSpec
	conns      int
	daemonArgs []string
	batch      int // queries per POST /v1/alloc/batch; 0 sends single GETs
}

var closedPlans = map[string]closedPlan{
	// Every request recomputes: no cache, one connection, all scenarios in a
	// seeded order.
	"serve-miss": {specs: []artifactSpec{ibm20}, conns: 1, daemonArgs: []string{"-cache-size", "0"}},
	// Every request is a cache hit: warm cache, two connections.
	"serve-hit": {specs: []artifactSpec{ibm20}, conns: 2, daemonArgs: []string{"-cache-size", "1024"}},
	// One POST carries 32 distinct queries, 16 per artifact, all warm.
	"serve-batch": {specs: []artifactSpec{ibm20, b420}, conns: 1, daemonArgs: []string{"-cache-size", "1024"}, batch: 32},
}

// runServeClosed measures client-observed latency and capacity of the real
// daemon over loopback HTTP with a fixed number of connections, each
// sending its next request when the previous one completes.
func runServeClosed(ctx context.Context, cfg *runConfig, def *workloadDef) (*runResult, error) {
	plan := closedPlans[def.name]
	env, err := startServe(ctx, cfg, plan.specs, plan.conns, plan.daemonArgs...)
	if err != nil {
		return nil, err
	}
	defer env.close()

	// The keys this run queries, in visiting order.
	var keys []queryKey
	perArt := 0
	if plan.batch > 0 {
		perArt = plan.batch / len(env.arts)
	}
	for a := range env.arts {
		order := env.scenarioOrder(a)
		if perArt > 0 && perArt < len(order) {
			order = order[:perArt]
		}
		for _, q := range order {
			keys = append(keys, queryKey{a, q})
		}
	}
	warm := keys
	if def.name == "serve-miss" {
		warm = keys[:1] // nothing to warm without a cache; one request opens the connection
	}
	if err := env.prepare(ctx, keys, warm); err != nil {
		return nil, err
	}

	var send func(lane, n int, buf *bytes.Buffer, traced bool) (closedSample, error)
	if plan.batch > 0 {
		send, err = env.batchSender(ctx, keys)
	} else {
		send, err = env.getSender(ctx, keys, plan.conns)
	}
	if err != nil {
		return nil, err
	}
	// One untimed request per connection opens it.
	for lane := 0; lane < plan.conns; lane++ {
		var buf bytes.Buffer
		if s, err := send(lane, 0, &buf, false); err != nil || s.bad > 0 {
			return nil, fmt.Errorf("warm-up request failed: bad=%d err=%v", s.bad, err)
		}
	}
	if injectFault == "corrupt-ref" {
		env.orc.corruptOne()
	}
	setup, setupWall := env.setupDone()

	var before promPage
	if cfg.trace {
		if before, err = env.d.scrape(env.client); err != nil {
			return nil, err
		}
	}
	cpu0, err := procCPU(env.d.pid())
	if err != nil {
		return nil, err
	}
	windowStart := time.Now()
	until := windowStart.Add(cfg.window)
	lanes := make([][]closedSample, plan.conns)
	laneErr := make([]error, plan.conns)
	var wg sync.WaitGroup
	for lane := 0; lane < plan.conns; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			var buf bytes.Buffer
			for n := 0; time.Now().Before(until) && ctx.Err() == nil; n++ {
				// In a traced run every other request carries a sampled
				// traceparent, so the two medians give the tracing overhead.
				traced := cfg.trace && n%2 == 1
				id := cfg.rec.begin("http request", -1, n, lane)
				s, err := send(lane, n, &buf, traced)
				cfg.rec.end(id)
				if err != nil {
					laneErr[lane] = err
					return
				}
				lanes[lane] = append(lanes[lane], s)
			}
		}(lane)
	}
	wg.Wait()
	window := time.Since(windowStart)
	cpu1, err := procCPU(env.d.pid())
	if err != nil {
		return nil, err
	}
	cfg.host.sample()
	for _, err := range laneErr {
		if err != nil {
			return nil, err
		}
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	out := &runResult{}
	in := opInput{setup: setup, setupWall: setupWall, hostMs: median(cfg.host.ms), window: window, cpu: cpu1 - cpu0}
	var tracedMs, plainMs []float64
	for _, samples := range lanes {
		for _, s := range samples {
			in.sent++
			in.latMs = append(in.latMs, s.ms)
			out.attempted += s.units
			out.failed += s.bad
			in.work += s.units - s.bad
			if s.bad == 0 && s.ms <= def.limitMs {
				in.inLimit++
			}
			if s.traced {
				tracedMs = append(tracedMs, s.ms)
			} else {
				plainMs = append(plainMs, s.ms)
			}
		}
	}
	if in.rssMB, err = peakRSSMB(env.d.pid()); err != nil {
		return nil, err
	}
	out.samples = in.sent
	out.e2e, out.ops = e2eMetrics(in), opMetrics(in)

	if cfg.trace {
		after, err := env.d.scrape(env.client)
		if err != nil {
			return nil, err
		}
		out.layers = newLayerValues()
		daemonLayers(before, after, out.layers)
		if len(tracedMs) > 0 && len(plainMs) > 0 {
			out.layers["obs.trace_overhead_frac"] = median(tracedMs)/median(plainMs) - 1
		}
		if def.name == "serve-hit" {
			out.layers["serve.hit_p999_ms"] = percentile(sortedCopy(in.latMs), 99.9)
		}
		env.close() // the probes below want the cores to themselves; closing twice is harmless
		if err := serveProbes(ctx, cfg, def, env, keys, out); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
	}
	return out, nil
}

// getSender returns the closed loop's single-GET sender. Each lane cycles
// through the keys from its own offset, reusing one request per key.
func (e *serveEnv) getSender(ctx context.Context, keys []queryKey, lanes int) (func(lane, n int, buf *bytes.Buffer, traced bool) (closedSample, error), error) {
	reqs := make([][]*http.Request, lanes)
	for lane := range reqs {
		for _, k := range keys {
			req, err := e.newGet(ctx, k)
			if err != nil {
				return nil, err
			}
			reqs[lane] = append(reqs[lane], req)
		}
	}
	return func(lane, n int, buf *bytes.Buffer, traced bool) (closedSample, error) {
		i := (n + lane*len(keys)/lanes) % len(keys)
		req := reqs[lane][i]
		if traced {
			req.Header.Set("traceparent", traceparent(n))
		} else {
			req.Header.Del("traceparent")
		}
		t0 := time.Now()
		r, err := e.do(req, buf)
		s := closedSample{ms: ms(time.Since(t0)), units: 1, traced: traced}
		if err != nil {
			return s, err
		}
		if shed, err := e.judge(keys[i], r); err != nil || shed {
			// A closed loop at this load is never refused; a refusal here
			// is as wrong as a bad body.
			s.bad = 1
		}
		return s, nil
	}, nil
}

// batchSender returns the closed loop's POST /v1/alloc/batch sender. The
// first response is taken apart entry by entry; once every entry has
// passed, the whole envelope is the reference and later responses are
// compared with it byte for byte, falling back to the entry-wise check on
// any difference.
func (e *serveEnv) batchSender(ctx context.Context, keys []queryKey) (func(lane, n int, buf *bytes.Buffer, traced bool) (closedSample, error), error) {
	// Interleave the artifacts and rotate by seed, so consecutive entries
	// resolve to different registry entries.
	order := make([]queryKey, len(keys))
	half := len(keys) / len(e.arts)
	rot := int(e.cfg.seed % int64(len(keys)))
	if rot < 0 {
		rot += len(keys)
	}
	for i := range keys {
		j := (i + rot) % len(keys)
		order[i] = keys[(j%len(e.arts))*half+j/len(e.arts)]
	}
	body, err := e.batchBody(order)
	if err != nil {
		return nil, err
	}
	var refEnvelope []byte
	return func(lane, n int, buf *bytes.Buffer, traced bool) (closedSample, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.d.base+"/v1/alloc/batch", bytes.NewReader(body))
		if err != nil {
			return closedSample{}, err
		}
		req.Header.Set("Content-Type", "application/json")
		if traced {
			req.Header.Set("traceparent", traceparent(n))
		}
		t0 := time.Now()
		r, err := e.do(req, buf)
		s := closedSample{ms: ms(time.Since(t0)), units: len(order), traced: traced}
		if err != nil {
			return s, err
		}
		if refEnvelope != nil && bytes.Equal(refEnvelope, r.body) {
			return s, nil
		}
		s.bad = e.judgeBatch(order, r)
		if s.bad == 0 && refEnvelope == nil {
			refEnvelope = append([]byte(nil), r.body...)
		}
		return s, nil
	}, nil
}

// batchBody renders the POST /v1/alloc/batch envelope asking for keys in
// order.
func (e *serveEnv) batchBody(keys []queryKey) ([]byte, error) {
	qs := make([]serve.BatchQuery, len(keys))
	for i, k := range keys {
		failed := e.arts[k.art].inst.Scenarios[k.q].Failed
		if failed == nil {
			failed = []int{} // the no-failure scenario must travel as [], not null
		}
		qs[i] = serve.BatchQuery{Artifact: e.arts[k.art].name, Failed: failed}
	}
	return json.Marshal(serve.BatchRequest{Queries: qs})
}

// judgeBatch checks a batch envelope entry by entry and returns how many
// entries failed: each must be a 200 whose spliced body passes the oracle.
func (e *serveEnv) judgeBatch(order []queryKey, r response) (bad int) {
	if r.status != http.StatusOK {
		return len(order)
	}
	var env struct {
		Results []struct {
			Status int             `json:"status"`
			Body   json.RawMessage `json:"body"`
		} `json:"results"`
	}
	if err := json.Unmarshal(r.body, &env); err != nil || len(env.Results) != len(order) {
		return len(order)
	}
	for i, res := range env.Results {
		if res.Status != http.StatusOK || e.orc.check(order[i], res.Body) != nil {
			bad++
		}
	}
	return bad
}
