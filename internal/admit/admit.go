// Package admit implements the serving layer's overload-resilience
// primitives: per-tenant token-bucket quotas, a consecutive-failure
// circuit breaker, and request-deadline parsing. The allocation server
// (internal/serve) charges the quota before parsing a query, so overload
// is refused predictably with a Retry-After hint, and the parsed deadline
// cuts off a request's wait for its recomputation (DESIGN.md §13). The
// server uses no breaker: a failed recompute of its immutable state fails
// again, so there is no fault for one to wait out. Breaker's only
// non-test caller is the benchmark's admit.breaker_allow_ns probe.
//
// Every type takes an injectable clock so tests drive time explicitly;
// the zero Clock falls back to time.Now. All types are safe for
// concurrent use.
package admit

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Clock supplies the current time; nil means time.Now. Injectable so the
// quota and breaker tests are deterministic.
type Clock func() time.Time

func (c Clock) now() time.Time {
	if c == nil {
		return time.Now()
	}
	return c()
}

// --- request deadlines ---

// ParseDeadline interprets the X-Request-Deadline header value: a Go
// duration string ("250ms", "2s") or a bare non-negative integer of
// milliseconds. Empty falls back to def. A parsed or default deadline of
// zero means "no deadline" — the request waits as long as its client does.
func ParseDeadline(header string, def time.Duration) (time.Duration, error) {
	header = strings.TrimSpace(header)
	if header == "" {
		return def, nil
	}
	if ms, err := strconv.Atoi(header); err == nil {
		if ms < 0 {
			return 0, fmt.Errorf("admit: negative deadline %dms", ms)
		}
		// time.Duration is int64 nanoseconds; a huge millisecond count
		// would overflow the multiplication silently, wrapping to an
		// arbitrary (possibly negative, possibly tiny) deadline.
		if int64(ms) > math.MaxInt64/int64(time.Millisecond) {
			return 0, fmt.Errorf("admit: deadline %dms overflows", ms)
		}
		return time.Duration(ms) * time.Millisecond, nil
	}
	d, err := time.ParseDuration(header)
	if err != nil {
		return 0, fmt.Errorf("admit: bad deadline %q: want a duration or integer milliseconds", header)
	}
	if d < 0 {
		return 0, fmt.Errorf("admit: negative deadline %v", d)
	}
	return d, nil
}

// RetryAfterSeconds rounds a backoff hint up to whole seconds for the
// Retry-After response header, with a floor of 1 so clients never retry
// in a hot loop.
func RetryAfterSeconds(d time.Duration) int {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		return 1
	}
	return s
}

// --- per-tenant token-bucket quotas ---

// QuotaConfig sizes the per-tenant token buckets.
type QuotaConfig struct {
	// Rate is the steady-state request rate each tenant may sustain, in
	// requests per second. Rate <= 0 disables quota enforcement entirely
	// (NewQuota returns nil).
	Rate float64
	// Burst is the bucket depth — how many requests a tenant may issue
	// back-to-back after idling. Values below 1 are clamped to 1.
	Burst float64
	// MaxTenants bounds how many tenant buckets are tracked at once
	// (default 1024). Tenants beyond the bound evict refilled buckets,
	// which is lossless: a full bucket restarts full.
	MaxTenants int
	// Clock is the time source; nil means time.Now.
	Clock Clock
}

// Quota enforces per-tenant token-bucket admission. Tenants are keyed by
// the caller-supplied name (the X-Tenant header); the empty name is the
// shared default pool, so anonymous traffic collectively gets one
// tenant's fair share instead of a bucket per connection.
type Quota struct {
	cfg QuotaConfig

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// NewQuota returns a quota enforcer, or nil when cfg.Rate <= 0 — a nil
// *Quota admits everything, so callers can thread it unconditionally.
func NewQuota(cfg QuotaConfig) *Quota {
	if cfg.Rate <= 0 {
		return nil
	}
	if cfg.Burst < 1 {
		cfg.Burst = 1
	}
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = 1024
	}
	return &Quota{cfg: cfg, buckets: make(map[string]*bucket)}
}

// Allow spends one token from tenant's bucket. When the bucket is empty
// it reports false and how long until the next token accrues — the
// Retry-After hint.
func (q *Quota) Allow(tenant string) (ok bool, retryAfter time.Duration) {
	if q == nil {
		return true, 0
	}
	now := q.cfg.Clock.now()
	q.mu.Lock()
	defer q.mu.Unlock()
	b, found := q.buckets[tenant]
	if !found {
		if len(q.buckets) >= q.cfg.MaxTenants {
			q.evictFull(now)
		}
		b = &bucket{tokens: q.cfg.Burst, last: now}
		q.buckets[tenant] = b
	} else {
		b.refill(now, q.cfg)
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := (1 - b.tokens) / q.cfg.Rate
	return false, time.Duration(need * float64(time.Second))
}

// Tenants reports how many tenant buckets are currently tracked.
func (q *Quota) Tenants() int {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buckets)
}

func (b *bucket) refill(now time.Time, cfg QuotaConfig) {
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * cfg.Rate
		if b.tokens > cfg.Burst {
			b.tokens = cfg.Burst
		}
	}
	b.last = now
}

// evictFull drops every bucket that has refilled to capacity — forgetting
// a full bucket is lossless because a new bucket starts full. Called with
// the lock held when the tenant table is at its bound; if every tracked
// tenant is mid-burst nothing is evicted and the table grows one past the
// bound, which is the correct bias (never forget an active limiter).
func (q *Quota) evictFull(now time.Time) {
	for name, b := range q.buckets {
		b.refill(now, q.cfg)
		if b.tokens >= q.cfg.Burst {
			delete(q.buckets, name)
		}
	}
}

// --- circuit breaker ---

// BreakerState is the classic three-state breaker automaton.
type BreakerState int32

const (
	// BreakerClosed is the healthy state: every call proceeds.
	BreakerClosed BreakerState = iota
	// BreakerOpen short-circuits every call until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits exactly one probe call; its outcome decides
	// between closing (success) and re-opening (failure).
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// BreakerConfig tunes a Breaker.
type BreakerConfig struct {
	// Threshold is the consecutive-failure count that trips the breaker.
	// Threshold <= 0 disables the breaker (NewBreaker returns nil).
	Threshold int
	// Cooldown is how long the breaker stays open before admitting a
	// half-open probe. 0 defaults to 5s.
	Cooldown time.Duration
	// Clock is the time source; nil means time.Now.
	Clock Clock
}

// Breaker is a consecutive-failure circuit breaker: Threshold failures in
// a row trip it open, a cooldown later one probe is admitted, and the
// probe's outcome closes or re-opens it. A nil *Breaker admits everything
// and ignores outcome reports, so callers thread it unconditionally.
type Breaker struct {
	cfg BreakerConfig

	mu          sync.Mutex
	state       BreakerState
	consecutive int
	openedAt    time.Time
	probing     bool
}

// NewBreaker returns a breaker, or nil when cfg.Threshold <= 0.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Threshold <= 0 {
		return nil
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 5 * time.Second
	}
	return &Breaker{cfg: cfg}
}

// Allow reports whether a call may proceed. While open it reports false
// with the time remaining until a probe will be admitted; when the
// cooldown has elapsed it transitions to half-open and admits exactly one
// probe (subsequent calls are refused until Success or Failure resolves
// it).
func (b *Breaker) Allow() (ok bool, retryAfter time.Duration) {
	if b == nil {
		return true, 0
	}
	now := b.cfg.Clock.now()
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true, 0
	case BreakerOpen:
		if remaining := b.openedAt.Add(b.cfg.Cooldown).Sub(now); remaining > 0 {
			return false, remaining
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true, 0
	default: // BreakerHalfOpen
		if b.probing {
			return false, b.cfg.Cooldown
		}
		b.probing = true
		return true, 0
	}
}

// Success reports a successful call: any state returns to closed and the
// consecutive-failure count resets.
func (b *Breaker) Success() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerClosed
	b.consecutive = 0
	b.probing = false
}

// Failure reports a failed call and returns true when this failure
// tripped the breaker open (the closed→open or half-open→open edge), so
// the caller can count and log trips exactly once.
func (b *Breaker) Failure() (tripped bool) {
	if b == nil {
		return false
	}
	now := b.cfg.Clock.now()
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		// Failed probe: straight back to open for another cooldown.
		b.state = BreakerOpen
		b.openedAt = now
		b.probing = false
		return true
	case BreakerOpen:
		b.consecutive++
		return false
	default:
		b.consecutive++
		if b.consecutive >= b.cfg.Threshold {
			b.state = BreakerOpen
			b.openedAt = now
			return true
		}
		return false
	}
}

// State reports the current automaton state (open may lazily read as open
// even after the cooldown elapsed — the transition to half-open happens
// on the next Allow).
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
