package serve

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"flexile/internal/admit"
	"flexile/internal/obs"
	"flexile/internal/par"
	flexscheme "flexile/internal/scheme/flexile"
	"flexile/internal/te"
)

// state is everything derived from one loaded artifact. A reload builds a
// complete new state and swaps the pointer; in-flight requests finish
// against the state they started with, so a swap can never mix two
// artifacts' data, and the old state's cache dies with it.
type state struct {
	art      *Artifact
	inst     *te.Instance
	off      *flexscheme.OfflineResult
	opt      flexscheme.Options
	checksum string
	loadedAt time.Time
	// scenIndex maps a canonical failed-edge key to a scenario index.
	scenIndex map[string]int
	cache     *lruCache
	flight    par.Flight[int, []byte]
}

// engine is the serving core of one artifact (DESIGN.md §10): the loaded
// state and everything that rations recomputation over it, so fault
// isolation between artifacts is structural. It answers canonical
// failure-state queries with an allocResult and sees no HTTP request or
// response; the Server owns routing, parsing, rendering and accounting.
type engine struct {
	name string
	path string
	cfg  Config
	// col is this artifact's child collector, rolling up into the Server's
	// root: the per-artifact counters of /v1/artifacts and /metrics. Never nil.
	col  *obs.Collector
	gate *par.Gate

	// base outlives any single request: detached recomputations queue on
	// the gate under it, so a client disconnect cannot cancel the solve
	// other waiters are riding. The Server cancels it at teardown.
	base       context.Context
	cancelBase context.CancelFunc

	// quota and the two breakers are nil when disabled in Config — the
	// admit package's nil receivers admit everything.
	quota         *admit.Quota
	compBreaker   *admit.Breaker
	reloadBreaker *admit.Breaker

	// stale is the last-known-good store backing degraded responses:
	// failedKey → the last successfully computed response bytes, kept
	// across artifact swaps and recompute failures. Entries are only
	// served with an explicit X-Flexile-Degraded marker when the live
	// path cannot answer (stale-while-revalidate).
	staleMu sync.RWMutex
	stale   map[string][]byte

	reloadMu  sync.Mutex // serializes reload (attempt numbering + swap order)
	attempts  int
	reloading atomic.Bool // true while a (re)load is decoding
	st        atomic.Pointer[state]
}

// newEngine builds an empty engine for the artifact file at path; the first
// load is a reload like any other.
func newEngine(name, path string, cfg Config, root *obs.Collector) *engine {
	bcfg := admit.BreakerConfig{Threshold: cfg.BreakerThreshold, Cooldown: cfg.BreakerCooldown}
	e := &engine{
		name:          name,
		path:          path,
		cfg:           cfg,
		col:           obs.NewChild(root),
		gate:          par.NewGate(cfg.Workers),
		quota:         admit.NewQuota(admit.QuotaConfig{Rate: cfg.TenantRate, Burst: cfg.TenantBurst}),
		compBreaker:   admit.NewBreaker(bcfg),
		reloadBreaker: admit.NewBreaker(bcfg),
		stale:         make(map[string][]byte),
	}
	e.base, e.cancelBase = context.WithCancel(context.Background())
	return e
}

// log emits one lifecycle event (never sampled) about this artifact when
// logging is configured.
func (e *engine) log(level slog.Level, msg string, attrs ...slog.Attr) {
	if lg := e.cfg.Log; lg != nil {
		attrs = append(attrs, slog.String("artifact", e.name), slog.String("path", e.path))
		lg.LogAttrs(context.Background(), level, msg, attrs...)
	}
}

// ErrReloadSuppressed wraps reload attempts short-circuited by the open
// reload breaker: after BreakerThreshold consecutive reload failures the
// server stops re-reading and re-validating the (presumably still broken)
// artifact file until the cooldown admits a probe. The previous artifact
// keeps serving throughout.
var ErrReloadSuppressed = errors.New("serve: reload suppressed by open breaker")

// reload re-reads the artifact file, validates it, and atomically swaps it
// in. On any failure — a vanished file, a corrupt one, a panic while
// decoding or instantiating — the previous state keeps serving and the
// error is returned. The allocation cache starts empty after a successful
// reload. When the reload breaker is open the attempt is suppressed
// entirely (no file read, no LoadHook) and a wrapped ErrReloadSuppressed is
// returned.
func (e *engine) reload() error {
	e.reloadMu.Lock()
	defer e.reloadMu.Unlock()
	if ok, retry := e.reloadBreaker.Allow(); !ok {
		e.col.AddServe(obs.ServeMetrics{ReloadsSkipped: 1})
		e.log(slog.LevelWarn, "reload suppressed", slog.Duration("retry_after", retry))
		return fmt.Errorf("%w (retry in %v)", ErrReloadSuppressed, retry)
	}
	e.attempts++
	e.reloading.Store(true)
	st, err := e.load(e.attempts)
	if err == nil {
		e.st.Store(st)
	}
	e.reloading.Store(false)

	d := obs.ServeMetrics{Reloads: 1}
	if err != nil {
		d.ReloadErrors = 1
		if e.reloadBreaker.Failure() {
			d.BreakerTrips = 1
			e.log(slog.LevelError, "reload breaker opened", slog.Int("attempt", e.attempts))
		}
		e.log(slog.LevelError, "artifact load failed",
			slog.Int("attempt", e.attempts),
			slog.String("error", err.Error()))
	} else {
		e.reloadBreaker.Success()
		e.log(slog.LevelInfo, "artifact loaded",
			slog.Int("attempt", e.attempts),
			slog.String("topology", st.art.TopoName),
			slog.String("checksum", st.checksum),
			slog.Int("scenarios", len(st.art.Scenarios)))
	}
	e.col.AddServe(d)
	return err
}

// load reads, decodes and instantiates the artifact file into a fresh
// state; a panic anywhere on that path is an error.
func (e *engine) load(attempt int) (st *state, err error) {
	defer func() {
		if r := recover(); r != nil {
			st, err = nil, fmt.Errorf("serve: reload panic: %v", r)
		}
	}()
	if hook := e.cfg.LoadHook; hook != nil {
		if herr := hook(attempt); herr != nil {
			return nil, fmt.Errorf("serve: load hook: %w", herr)
		}
	}
	data, err := os.ReadFile(e.path)
	if err != nil {
		return nil, fmt.Errorf("serve: read artifact: %w", err)
	}
	art, err := Decode(data)
	if err != nil {
		return nil, err
	}
	inst, off, opt, err := art.Instantiate()
	if err != nil {
		return nil, err
	}
	st = &state{
		art:       art,
		inst:      inst,
		off:       off,
		opt:       opt,
		checksum:  art.Checksum(),
		loadedAt:  time.Now(),
		scenIndex: make(map[string]int, len(art.Scenarios)),
		cache:     newLRUCache(e.cfg.CacheSize),
	}
	for q, sc := range art.Scenarios {
		st.scenIndex[failedKey(sc.Failed)] = q
	}
	return st, nil
}

// ArtifactStatus is one row of GET /v1/artifacts: identity, breaker states
// and the artifact's own serving and reload counters — what operators (and
// the chaos harness) use to tell a healthy artifact from a flapping one.
type ArtifactStatus struct {
	Name             string `json:"name"`
	Checksum         string `json:"checksum"`
	Topology         string `json:"topology"`
	Scenarios        int    `json:"scenarios"`
	LoadedAt         string `json:"loaded_at"`
	RecomputeBreaker string `json:"recompute_breaker"`
	ReloadBreaker    string `json:"reload_breaker"`
	obs.ServeMetrics
}

func (e *engine) status() ArtifactStatus {
	st := e.st.Load()
	return ArtifactStatus{
		Name:             e.name,
		Checksum:         st.checksum,
		Topology:         st.art.TopoName,
		Scenarios:        len(st.art.Scenarios),
		LoadedAt:         st.loadedAt.UTC().Format(time.RFC3339Nano),
		RecomputeBreaker: e.compBreaker.State().String(),
		ReloadBreaker:    e.reloadBreaker.State().String(),
		ServeMetrics:     e.col.Snapshot().Serve,
	}
}

// --- stale last-known-good store (degraded responses) ---

// staleCap bounds the last-known-good store. Keys are enumerated failure
// states, so the bound is a safety net against pathological artifact
// churn, not a working-set limit.
const staleCap = 65536

func (e *engine) staleGet(key string) ([]byte, bool) {
	e.staleMu.RLock()
	defer e.staleMu.RUnlock()
	b, ok := e.stale[key]
	return b, ok
}

func (e *engine) stalePut(key string, body []byte) {
	e.staleMu.Lock()
	defer e.staleMu.Unlock()
	if _, exists := e.stale[key]; !exists && len(e.stale) >= staleCap {
		// At capacity: drop an arbitrary entry. Losing a stale answer only
		// costs a future degraded response, never a correct one.
		for k := range e.stale {
			delete(e.stale, k)
			break
		}
	}
	e.stale[key] = body
}

// --- the allocation pipeline ---

// stage names the point of the staged admission pipeline (DESIGN.md §13)
// that decided a query's outcome; outcomes are counted by it.
type stage uint8

const (
	stageQuota   stage = iota // tenant token bucket empty
	stageParse                // malformed deadline or request (the Server's, before the engine)
	stageLookup               // no enumerated scenario matches the failure state
	stageCache                // answered from the LRU cache
	stageAdmit                // predicted gate wait already exceeds the deadline
	stageBreaker              // recompute breaker open
	stageFlight               // led or joined a single-flight recomputation
)

// allocResult is the outcome of one allocation query, independent of how
// it is written back and carrying everything worth counting or timing about
// it, so the pipeline itself touches no counters. The Server renders it as
// a single response or as one batch entry (the two cannot drift apart).
type allocResult struct {
	status   int           // the HTTP status of the single-request rendering
	body     []byte        // marshaled AllocResponse; nil unless status 200
	errMsg   string        // error text; "" unless status != 200
	cache    string        // hit | miss | shared | stale | "" (non-200)
	shed     string        // quota | deadline | breaker | "" (not shed)
	retry    time.Duration // Retry-After hint when shed != ""
	degraded bool          // body came from the stale last-known-good store
	scenario int           // matched scenario index, -1 when none

	decided  stage     // the pipeline stage that decided the outcome
	shared   bool      // rode a flight another query started, whatever came of it
	missedAt time.Time // when the query went past the cache; zero if it never did
}

// metrics is the one mapping from an outcome to its counters: every query
// is a request, and everything past the cache is a miss, whatever became of
// it afterwards.
func (r allocResult) metrics() obs.ServeMetrics {
	d := obs.ServeMetrics{Requests: 1}
	switch r.decided {
	case stageQuota:
		d.QuotaRejects = 1
	case stageParse, stageLookup:
		d.BadRequests = 1
	case stageCache:
		d.CacheHits = 1
	case stageAdmit:
		d.CacheMisses, d.DeadlineShed = 1, 1
	case stageBreaker:
		d.CacheMisses, d.BreakerRejects = 1, 1
	case stageFlight:
		d.CacheMisses = 1
		if r.shed == "deadline" {
			d.DeadlineExpired = 1
		}
	}
	if r.shared {
		d.FlightShared = 1
	}
	if r.degraded {
		d.Degraded = 1
	}
	return d
}

// admit charges one query to tenant's token bucket. Quota is per query as
// sent — charged before parsing on the single route, per entry before
// duplicates are grouped on the batch route — hence not part of allocate.
func (e *engine) admit(tenant string) (refusal allocResult, ok bool) {
	if ok, retry := e.quota.Allow(tenant); !ok {
		return allocResult{status: http.StatusTooManyRequests, scenario: -1, decided: stageQuota,
			shed: "quota", retry: retry, errMsg: "tenant quota exceeded"}, false
	}
	return allocResult{}, true
}

// allocate runs the engine's stages of the admission pipeline (DESIGN.md
// §13) for one canonical failure-state query against the currently loaded
// state: lookup → 404, cache → hit, admit → 503 shed, breaker → stale
// degraded answer or 503, flight → detached single-flight recompute, where
// the caller waits at most waitCtx and the computation always completes.
// waitCtx also carries the request trace, if any; the leading waiter's
// trace receives the nested queue/recompute spans.
func (e *engine) allocate(waitCtx context.Context, req *AllocRequest, deadline time.Duration) allocResult {
	st := e.st.Load()
	key := failedKey(req.Failed)
	q, ok := st.scenIndex[key]
	if !ok {
		return allocResult{status: http.StatusNotFound, scenario: -1, decided: stageLookup,
			errMsg: fmt.Sprintf("no enumerated scenario matches failed edges %v", req.Failed)}
	}
	if body, ok := st.cache.get(q); ok {
		return allocResult{status: http.StatusOK, scenario: q, decided: stageCache, cache: "hit", body: body}
	}
	missedAt := time.Now()

	// Deadline-aware admission: a miss that would queue past its deadline
	// is refused now, while the refusal is still cheap, instead of
	// occupying a waiter slot to certain failure.
	if deadline > 0 {
		if est := e.gate.EstimatedWait(); est > deadline {
			return allocResult{status: http.StatusServiceUnavailable, scenario: q, decided: stageAdmit, missedAt: missedAt,
				shed: "deadline", retry: est,
				errMsg: fmt.Sprintf("predicted queue wait %v exceeds request deadline %v", est, deadline)}
		}
	}

	// Recompute breaker: while open, don't touch the failing solve path —
	// serve the last known good answer, explicitly marked degraded, or
	// shed if this failure state has never been answered.
	if ok, retry := e.compBreaker.Allow(); !ok {
		if stale, degOK := e.staleGet(key); degOK {
			return allocResult{status: http.StatusOK, scenario: q, decided: stageBreaker, missedAt: missedAt,
				cache: "stale", degraded: true, body: stale}
		}
		return allocResult{status: http.StatusServiceUnavailable, scenario: q, decided: stageBreaker, missedAt: missedAt,
			shed: "breaker", retry: retry,
			errMsg: "recompute breaker open and no stale answer for this failure state"}
	}

	// Admitted. The wait is bounded by the request deadline and the client
	// connection; the recomputation itself runs detached under the
	// engine's lifetime, so neither a disconnect nor a deadline can fail
	// the computation other waiters are riding (or waste the solve — the
	// result still lands in the cache).
	body, cerr, shared := st.flight.DoDetached(waitCtx, q, func() ([]byte, error) {
		return e.recompute(st, q, key, obs.ReqTraceFrom(waitCtx))
	})
	res := allocResult{scenario: q, decided: stageFlight, missedAt: missedAt, shared: shared}
	switch {
	case cerr == nil:
		res.status, res.body, res.cache = http.StatusOK, body, "miss"
		if shared {
			res.cache = "shared"
		}
	case errors.Is(cerr, context.DeadlineExceeded) || errors.Is(cerr, context.Canceled):
		// Deadline or client gone while waiting; the detached solve
		// continues for whoever asks next.
		res.status, res.shed, res.retry = http.StatusServiceUnavailable, "deadline", e.gate.EstimatedWait()
		res.errMsg = "deadline expired before the allocation completed"
	default:
		// The recomputation itself failed: degrade to the last known good
		// answer when one exists.
		if stale, degOK := e.staleGet(key); degOK {
			res.status, res.body, res.cache, res.degraded = http.StatusOK, stale, "stale", true
		} else {
			res.status, res.errMsg = http.StatusInternalServerError, cerr.Error()
		}
	}
	return res
}

// recompute is the detached single-flight executor for one scenario: it
// queues on the gate under the engine's base context (never a request's),
// runs the Online solve, feeds the recompute breaker, and on success
// fills both the per-artifact cache and the last-known-good store — side
// effects that land even if every waiter has already given up. Its
// counters flush straight to the collector on return because the executor
// can outlive the request that spawned it; tr is the leading waiter's trace
// (possibly nil) and receives nested queue/recompute spans, which no-op
// if that request has already finished.
func (e *engine) recompute(st *state, q int, key string, tr *obs.ReqTrace) ([]byte, error) {
	var d obs.ServeMetrics
	defer func() { e.col.AddServe(d) }()
	if !e.gate.TryEnter() {
		d.GateWaits = 1
		queued := time.Now()
		if gerr := e.gate.Enter(e.base); gerr != nil {
			return nil, fmt.Errorf("serve: server closed while queued for recompute: %w", gerr)
		}
		e.col.ObserveLatency(obs.LatQueueWait, time.Since(queued))
		tr.AddSpan("queue", queued, time.Now(), true)
	}
	entered := time.Now()
	defer func() {
		e.gate.ObserveHold(time.Since(entered))
		e.gate.Leave()
	}()

	body, err := e.solve(st, q)
	solved := time.Now()
	e.col.ObserveLatency(obs.LatStageRecompute, solved.Sub(entered))
	tr.AddSpan("recompute", entered, solved, true)
	if err != nil {
		d.RecomputeErrors = 1
		if e.compBreaker.Failure() {
			d.BreakerTrips = 1
			e.log(slog.LevelError, "recompute breaker opened",
				slog.Int("scenario", q),
				slog.String("error", err.Error()))
		}
		return nil, err
	}
	e.compBreaker.Success()
	d.Recomputes = 1
	st.cache.put(q, body)
	e.stalePut(key, body)
	return body, nil
}

// solve runs the ComputeHook and the online allocation for scenario q and
// marshals the response once; the cached bytes are served verbatim
// thereafter, so hits and misses are bit-identical by construction. A
// panicking solve must still feed the breaker, so it is recovered here
// rather than left to the flight's safety net.
func (e *engine) solve(st *state, q int) (body []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			body, err = nil, fmt.Errorf("serve: recompute panic: %v", r)
		}
	}()
	if hook := e.cfg.ComputeHook; hook != nil {
		if herr := hook(q); herr != nil {
			return nil, herr
		}
	}
	res, err := flexscheme.Online(st.inst, st.off, q, st.opt)
	if err != nil {
		return nil, err
	}
	return json.Marshal(AllocResponse{
		Scenario: q,
		Prob:     st.art.Scenarios[q].Prob,
		Frac:     res.Frac,
		X:        res.X,
	})
}

// AllocResponse is the JSON allocation answer. Frac and X carry the exact
// float64 values te.MaxMin produced (Go's JSON encoding is shortest-form
// round-trip exact), so two servers loading the same artifact — or the
// server and a direct library call — produce byte-identical bodies.
type AllocResponse struct {
	// Scenario is the matched scenario index.
	Scenario int `json:"scenario"`
	// Prob is that scenario's probability.
	Prob float64 `json:"prob"`
	// Frac[f] is the fraction of demand allocated to flow f.
	Frac []float64 `json:"frac"`
	// X[k][i][t] is the per-tunnel allocation.
	X [][][]float64 `json:"x"`
}

// --- allocation cache ---

// lruCache is a size-bounded scenario→response cache. capacity 0 disables
// it (get always misses, put is a no-op); negative capacity is unbounded.
type lruCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List
	items    map[int]*list.Element
}

type lruEntry struct {
	key  int
	body []byte
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{capacity: capacity, ll: list.New(), items: make(map[int]*list.Element)}
}

func (c *lruCache) get(key int) ([]byte, bool) {
	if c.capacity == 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).body, true
}

func (c *lruCache) put(key int, body []byte) {
	if c.capacity == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).body = body
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, body: body})
	if c.capacity > 0 && c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
