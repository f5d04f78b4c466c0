package obs

import (
	"sort"
	"sync"
)

// TraceRing is the bounded in-memory store behind GET /debug/requests
// (x/net/trace-style): three fixed-size buckets of finished request traces
// — the most recent requests (a circular FIFO), the slowest ever seen
// (insert-sorted, smallest evicted first), and the most recent errored
// (status ≥ 400). A finished trace is immutable, so readers never observe
// a trace that is still being mutated, and the memory bound is exact:
// recent+slow+errored traces, regardless of how many requests flow
// through.
type TraceRing struct {
	mu      sync.Mutex
	total   uint64
	recent  []*Trace // circular, next is the write cursor
	next    int
	filled  bool
	slowest []*Trace // sorted by Dur descending
	slowCap int
	errored []*Trace // circular, errNext is the write cursor
	errNext int
	errFull bool
}

// Default bucket sizes, used when NewTraceRing is given zeros.
const (
	DefaultRingRecent  = 64
	DefaultRingSlowest = 16
	DefaultRingErrored = 32
)

// NewTraceRing builds a ring with the given bucket capacities; zero or
// negative values take the defaults.
func NewTraceRing(recent, slowest, errored int) *TraceRing {
	if recent <= 0 {
		recent = DefaultRingRecent
	}
	if slowest <= 0 {
		slowest = DefaultRingSlowest
	}
	if errored <= 0 {
		errored = DefaultRingErrored
	}
	return &TraceRing{
		recent:  make([]*Trace, recent),
		slowCap: slowest,
		slowest: make([]*Trace, 0, slowest),
		errored: make([]*Trace, errored),
	}
}

// Add stores a finished trace (Finish has returned) in the ring. Nil-safe
// on both sides so the serving path can call it unconditionally.
func (r *TraceRing) Add(t *Trace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	r.total++

	r.recent[r.next] = t
	r.next++
	if r.next == len(r.recent) {
		r.next = 0
		r.filled = true
	}

	if len(r.slowest) < r.slowCap || t.Dur > r.slowest[len(r.slowest)-1].Dur {
		i := sort.Search(len(r.slowest), func(i int) bool { return r.slowest[i].Dur < t.Dur })
		if len(r.slowest) < r.slowCap {
			r.slowest = append(r.slowest, nil)
		}
		copy(r.slowest[i+1:], r.slowest[i:])
		r.slowest[i] = t
	}

	if t.Status >= 400 {
		r.errored[r.errNext] = t
		r.errNext++
		if r.errNext == len(r.errored) {
			r.errNext = 0
			r.errFull = true
		}
	}
	r.mu.Unlock()
}

// Total reports how many traces have ever been added.
func (r *TraceRing) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Recent returns the retained recent traces, newest first.
func (r *TraceRing) Recent() []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return unroll(r.recent, r.next, r.filled)
}

// Slowest returns the slowest traces seen, slowest first.
func (r *TraceRing) Slowest() []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Trace(nil), r.slowest...)
}

// Errored returns the retained traces with status ≥ 400, newest first.
func (r *TraceRing) Errored() []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return unroll(r.errored, r.errNext, r.errFull)
}

// unroll copies a circular buffer out newest-first. next is the write
// cursor (one past the most recent entry).
func unroll(buf []*Trace, next int, filled bool) []*Trace {
	n := next
	if filled {
		n = len(buf)
	}
	out := make([]*Trace, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, buf[(next-1-i+len(buf))%len(buf)])
	}
	return out
}
