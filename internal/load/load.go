// Package load is the repository's one request engine (DESIGN.md §13):
// every storm, soak and load run outside bench/ goes plan → fire → outcome
// → contract through it.
//
//   - A Plan (BuildPlan) is the whole open-loop request stream — firing
//     offsets, tenants, queries — as a pure function of the seed, built
//     before the first byte hits the wire.
//   - Client.Fire renders one planned Request as a single GET /v1/alloc or
//     a POST /v1/alloc/batch and returns one raw Outcome per query.
//   - Contract is the serving contract checked from the outside: an
//     oracle-exact 200 or an explicit, labelled shed — anything else is a
//     violation that names the request.
//   - Two drivers schedule Fire: the open-loop Run (Poisson arrivals, every
//     latency counted from the request's due time) and the closed-loop
//     seeded Storm (clients × requests with think-time jitter). Both hand
//     each fired request to a sink as a Sample; Stats is the standard sink.
package load

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"
)

// Config describes one load run.
type Config struct {
	// Seed fixes the whole request stream; same seed, same Plan.
	Seed uint64
	// QPS is the open-loop HTTP request arrival rate (each request
	// carries Batch queries, so the query rate is QPS*Batch).
	QPS float64
	// Duration bounds the arrival schedule.
	Duration time.Duration
	// Batch is queries per request: <=1 sends single GET /v1/alloc
	// requests, >1 sends POST /v1/alloc/batch envelopes.
	Batch int
	// Tenants rotates X-Tenant across this many synthetic tenant ids;
	// 0 sends no header (the server's shared default bucket).
	Tenants int
	// Deadline is sent as X-Request-Deadline on every request; 0 omits it.
	Deadline time.Duration
	// Scenarios maps each artifact name ("" for unnamed single-artifact
	// addressing) to its enumerated failure states. Required, and each
	// list must be non-empty.
	Scenarios map[string][][]int
	// HotFraction is the probability a query draws from the first HotSet
	// scenarios instead of the full list — the mixed hit/miss knob: a
	// warm cache answers the hot set inline while the cold tail keeps
	// missing. 0 means uniform over all scenarios.
	HotFraction float64
	// HotSet is the hot-set size per artifact; 0 means 1, larger than
	// the scenario list is clamped.
	HotSet int
}

// Query is one allocation query in a planned request.
type Query struct {
	Artifact string `json:"artifact,omitempty"`
	Failed   []int  `json:"failed"`
}

// Request is one planned HTTP request.
type Request struct {
	// At is the firing offset from the run's start.
	At time.Duration `json:"at_ns"`
	// Tenant is the X-Tenant header value; "" sends none.
	Tenant string `json:"tenant,omitempty"`
	// ID is the request's planned X-Request-Id, derived from the seed and
	// the request's position — NOT from an rng draw, so adding ids did not
	// shift any planned stream. The server echoes it and keys its trace
	// ring entries by it, which is what lets a soak or chaos failure name
	// the exact server-side trace to pull up.
	ID string `json:"id,omitempty"`
	// Queries has exactly one entry for single-request mode.
	Queries []Query `json:"queries"`
}

// TraceParent renders the request's deterministic W3C traceparent header
// (sampled flag set, so the server always records the trace). Trace and
// span ids are a pure hash of ID; "" when the request has no ID.
func (rq Request) TraceParent() string {
	if rq.ID == "" {
		return ""
	}
	// FNV-1a over the id seeds a splitmix stream for the three id words.
	h := uint64(1469598103934665603)
	for i := 0; i < len(rq.ID); i++ {
		h ^= uint64(rq.ID[i])
		h *= 1099511628211
	}
	r := Rand{s: h}
	a, b, c := r.Next(), r.Next(), r.Next()
	if a == 0 && b == 0 {
		a = 1 // trace-id all-zero is invalid per the spec
	}
	if c == 0 {
		c = 1
	}
	return fmt.Sprintf("00-%016x%016x-%016x-01", a, b, c)
}

// Plan is a fully materialized request stream.
type Plan struct {
	Seed     uint64    `json:"seed"`
	Requests []Request `json:"requests"`
}

// Rand is the repository's one seeded stream: splitmix64 — tiny, fast,
// identical on every platform. Plans, storm clients and hypotheses all
// draw from it, so a seed reproduces the same traffic everywhere. (The
// stateless mixers in obs, emu and the flexile fault-injection tests are
// hashes, not streams.)
type Rand struct{ s uint64 }

// fork returns the private stream of client w of a storm seeded with
// seed; each closed-loop client draws from its own so interleaving cannot
// change what any of them sends.
func fork(seed uint64, w int) Rand { return Rand{s: seed ^ (uint64(w+1) * 0x9e3779b97f4a7c15)} }

// Next returns the next 64 bits of the stream.
func (r *Rand) Next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	x := r.s
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Intn returns a draw in [0, n).
func (r *Rand) Intn(n int) int { return int(r.Next() % uint64(n)) }

// Float returns a uniform draw in (0, 1].
func (r *Rand) Float() float64 { return (float64(r.Next()>>11) + 1) / (1 << 53) }

// BuildPlan materializes the request stream for cfg — deterministically:
// the Plan depends only on cfg (in particular Seed), never on the clock
// or the server.
func BuildPlan(cfg Config) (*Plan, error) {
	if cfg.QPS <= 0 {
		return nil, fmt.Errorf("load: QPS must be positive, got %v", cfg.QPS)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("load: Duration must be positive, got %v", cfg.Duration)
	}
	if len(cfg.Scenarios) == 0 {
		return nil, fmt.Errorf("load: no scenarios configured")
	}
	arts := make([]string, 0, len(cfg.Scenarios))
	for a, keys := range cfg.Scenarios {
		if len(keys) == 0 {
			return nil, fmt.Errorf("load: artifact %q has no scenarios", a)
		}
		arts = append(arts, a)
	}
	sort.Strings(arts)
	batch := cfg.Batch
	if batch < 1 {
		batch = 1
	}

	r := Rand{s: cfg.Seed}
	plan := &Plan{Seed: cfg.Seed}
	var at time.Duration
	for {
		// Poisson arrivals: exponential inter-arrival at rate QPS.
		at += time.Duration(-math.Log(r.Float()) / cfg.QPS * float64(time.Second))
		if at >= cfg.Duration {
			return plan, nil
		}
		req := Request{At: at, Queries: make([]Query, batch)}
		req.ID = fmt.Sprintf("load-%x-%d", cfg.Seed, len(plan.Requests))
		if cfg.Tenants > 0 {
			req.Tenant = "load-" + strconv.Itoa(r.Intn(cfg.Tenants))
		}
		for i := range req.Queries {
			a := arts[r.Intn(len(arts))]
			keys := cfg.Scenarios[a]
			pick := len(keys)
			if cfg.HotFraction > 0 && r.Float() <= cfg.HotFraction {
				pick = cfg.HotSet
				if pick < 1 {
					pick = 1
				}
				if pick > len(keys) {
					pick = len(keys)
				}
			}
			req.Queries[i] = Query{Artifact: a, Failed: keys[r.Intn(pick)]}
		}
		plan.Requests = append(plan.Requests, req)
	}
}
