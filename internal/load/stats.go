package load

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// MaxLagP99 is the generator lag — p99 of sent − due — beyond which an
// open-loop run says more about the generator than about the server, and
// Stats.Valid reports false. A constant, not an option: an idle Go process
// wakes its timers on the netpoller's whole milliseconds, so a healthy
// generator's median request already leaves ~0.6 ms late (measured by
// bench/open.go, which uses the same bound); 5 ms is eight times that and
// still under the cheapest cache miss (~10 ms), so a lag inside the bound
// cannot move a request across the hit/miss divide.
const MaxLagP99 = 5 * time.Millisecond

// maxListed caps Stats.Violations and Stats.FailedIDs: a systemic failure
// repeats the same story, the first few are what an operator greps for.
const maxListed = 32

// Stats is the standard sink: it classifies every outcome with Contract
// and counts. Entry counts are per query (one batch request contributes
// one per query); latencies and lags are per HTTP round trip. Drivers call
// Add serially, so a Stats needs no lock.
type Stats struct {
	// Oracle is what 200s are compared with; nil compares nothing.
	Oracle Oracle

	Requests int
	Entries  int
	// OK counts Exact outcomes, broken down by X-Flexile-Cache disposition
	// (hit, miss) and by the artifact queried.
	OK       int
	Cache    map[string]int
	Artifact map[string]int
	Shed     map[string]int // by reason: quota, deadline
	// Disconnect counts entries lost to transport failures — a client-side
	// timeout, a refused connection. Legal in a disconnect storm, an error
	// in a load run; the caller decides.
	Disconnect int
	// Violated counts contract violations; Violations holds the first few.
	Violated   int
	Violations []error
	// FailedIDs holds the planned ids (== X-Request-Id sent) of the first
	// few requests with a violation or transport failure: each names the
	// server-side trace at /debug/requests.
	FailedIDs []string

	// Latencies are done − due for every request; Lags are sent − due.
	Latencies []time.Duration
	Lags      []time.Duration
	admitted  []time.Duration // latencies of requests whose every entry was Exact
	// Elapsed is when the last response landed, from the run's start.
	Elapsed time.Duration
}

// NewStats returns an empty Stats checking against oracle.
func NewStats(oracle Oracle) *Stats {
	return &Stats{
		Oracle:   oracle,
		Cache:    make(map[string]int),
		Artifact: make(map[string]int),
		Shed:     make(map[string]int),
	}
}

// Add folds one sample in.
func (s *Stats) Add(sm Sample) {
	s.Requests++
	s.Entries += len(sm.Request.Queries)
	s.Latencies = append(s.Latencies, sm.Done-sm.Due)
	s.Lags = append(s.Lags, sm.Sent-sm.Due)
	if sm.Done > s.Elapsed {
		s.Elapsed = sm.Done
	}
	failed := sm.Err != nil
	if failed {
		s.Disconnect += len(sm.Request.Queries)
	}
	exact := 0
	for i, out := range sm.Outcomes {
		class, err := Contract(s.Oracle, sm.Request, i, out)
		switch class {
		case Exact:
			exact++
			s.OK++
			if out.Cache == "hit" {
				s.Cache["hit"]++
			} else {
				s.Cache["miss"]++
			}
			s.Artifact[sm.Request.Queries[i].Artifact]++
		case Shed:
			s.Shed[out.Shed]++
		case Violation:
			failed = true
			s.Violated++
			if len(s.Violations) < maxListed {
				s.Violations = append(s.Violations, err)
			}
		}
	}
	if failed && sm.Request.ID != "" && len(s.FailedIDs) < maxListed {
		s.FailedIDs = append(s.FailedIDs, sm.Request.ID)
	}
	if exact > 0 && exact == len(sm.Outcomes) {
		s.admitted = append(s.admitted, sm.Done-sm.Due)
	}
}

// Sheds sums sheds across all reasons.
func (s *Stats) Sheds() int {
	n := 0
	for _, v := range s.Shed {
		n += v
	}
	return n
}

// Valid reports whether the generator kept its schedule: lag p99 within
// MaxLagP99. A closed-loop storm has no schedule and is always valid.
func (s *Stats) Valid() bool { return quantile(sorted(s.Lags), 0.99) <= MaxLagP99 }

// P99OK returns the 99th-percentile latency of the fully admitted requests
// (every entry Exact), or 0 when there were none.
func (s *Stats) P99OK() time.Duration { return quantile(sorted(s.admitted), 0.99) }

// String renders a one-line summary for test logs.
func (s *Stats) String() string {
	return fmt.Sprintf("ok=%d %v shed=%v disconnect=%d violations=%d",
		s.OK, s.Cache, s.Shed, s.Disconnect, s.Violated)
}

// quantile is the nearest-rank p-quantile of ascending samples: the
// smallest with at least a fraction p of them at or below it, so a tail
// percentile of a short run is its worst sample, never an interpolated
// better one.
func quantile(asc []time.Duration, p float64) time.Duration {
	if len(asc) == 0 {
		return 0
	}
	return asc[max(int(math.Ceil(p*float64(len(asc))))-1, 0)]
}

func sorted(ds []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), ds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Summary is a run in the form cmd/flexile-load prints: counts by
// disposition, latency from due time, generator lag, goodput.
type Summary struct {
	Requests   int            `json:"requests"`
	Entries    int            `json:"entries"`
	OK         int            `json:"ok"`
	Hits       int            `json:"hits"`
	Miss       int            `json:"miss"`
	Shed       int            `json:"shed"`
	ShedBy     map[string]int `json:"shed_by,omitempty"`
	Disconnect int            `json:"disconnects"`
	Violations int            `json:"violations"`
	// Errors is Disconnect + Violations: entries with no contractual answer.
	Errors     int      `json:"errors"`
	P50Ms      float64  `json:"p50_ms"`
	P99Ms      float64  `json:"p99_ms"`
	P999Ms     float64  `json:"p999_ms"`
	LagP99Ms   float64  `json:"lag_p99_ms"`
	ElapsedS   float64  `json:"elapsed_s"`
	GoodputQPS float64  `json:"goodput_qps"`
	FailedIDs  []string `json:"failed_ids,omitempty"`
	// Valid is false when the generator fell behind its schedule (lag p99
	// over MaxLagP99): the latencies then include the generator's own stalls.
	Valid bool `json:"valid"`
}

// Summary folds the counters into their reported form.
func (s *Stats) Summary() Summary {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	lats, lagP99 := sorted(s.Latencies), quantile(sorted(s.Lags), 0.99)
	sum := Summary{
		Requests:   s.Requests,
		Entries:    s.Entries,
		OK:         s.OK,
		Hits:       s.Cache["hit"],
		Miss:       s.Cache["miss"],
		Shed:       s.Sheds(),
		ShedBy:     s.Shed,
		Disconnect: s.Disconnect,
		Violations: s.Violated,
		Errors:     s.Disconnect + s.Violated,
		P50Ms:      ms(quantile(lats, 0.50)),
		P99Ms:      ms(quantile(lats, 0.99)),
		P999Ms:     ms(quantile(lats, 0.999)),
		LagP99Ms:   ms(lagP99),
		ElapsedS:   s.Elapsed.Seconds(),
		FailedIDs:  s.FailedIDs,
		Valid:      lagP99 <= MaxLagP99,
	}
	if s.Elapsed > 0 {
		sum.GoodputQPS = float64(s.OK) / s.Elapsed.Seconds()
	}
	return sum
}
