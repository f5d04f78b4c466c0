package obs

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// Histogram is a fixed-bucket log-scale latency histogram built for hot
// paths: Observe is a handful of atomic adds (no locks, no allocation) and
// is safe for any number of concurrent observers, while Snapshot returns a
// self-consistent view — its Count, Sum and bucket counts all describe
// exactly the same set of observations, never a torn mix of two instants
// (the /metrics exposition invariant: _count equals the +Inf bucket).
//
// Consistency is achieved with a hot/cold double buffer in the style of a
// read-copy-update: Observe increments an observation ticket whose high bit
// selects the hot buffer, and Snapshot flips the bit, waits for the
// stragglers that ticketed into the now-cold buffer to land, reads it at
// rest, then folds it forward into the new hot buffer so totals are
// cumulative. Observers never block; Snapshot spins only for the handful of
// observers caught mid-add.
//
// Buckets are powers of two in nanoseconds from histMinExp to histMaxExp
// plus a +Inf overflow, so every finite bucket spans one octave: a quantile
// estimated from the histogram is off by at most a factor of 2 (one bucket)
// from the exact order statistic. The scheme is
// fixed — not per-histogram — so any two histograms (or snapshots from
// different processes) merge bucket-by-bucket without rebinning.
type Histogram struct {
	// countAndHotIdx packs the hot buffer index (bit 63) with the number of
	// Observe calls begun (bits 0-62), exactly one atomic Add per Observe.
	countAndHotIdx atomic.Uint64
	counts         [2]histCounts
	// snapMu serializes snapshots (concurrent scrapes queue; observers
	// never touch it).
	snapMu sync.Mutex
}

// histCounts is one of the two accumulation buffers.
type histCounts struct {
	count   atomic.Uint64 // observations fully landed in this buffer
	sum     atomic.Int64  // nanoseconds
	buckets [histBuckets]atomic.Uint64
}

const (
	// histMinExp..histMaxExp are the exponents of the finite bucket upper
	// bounds: 2^8 ns (256ns) through 2^34 ns (~17.2s). 27 finite buckets
	// plus +Inf cover everything from sub-microsecond cache hits to solver
	// runs, one octave per bucket.
	histMinExp = 8
	histMaxExp = 34
	// histBuckets counts the finite buckets plus the +Inf overflow bucket.
	histBuckets = histMaxExp - histMinExp + 2

	histHotBit   = 1 << 63
	histCountMsk = histHotBit - 1
)

// HistBounds returns the finite bucket upper bounds in nanoseconds,
// ascending. Every histogram shares this scheme; the implicit final bucket
// is +Inf.
func HistBounds() []int64 {
	out := make([]int64, histBuckets-1)
	for i := range out {
		out[i] = 1 << (histMinExp + i)
	}
	return out
}

// histBucketOf maps a (non-negative) nanosecond value to its bucket index:
// the smallest i with v <= 2^(histMinExp+i), or the +Inf bucket.
func histBucketOf(nanos int64) int {
	if nanos <= 1<<histMinExp {
		return 0
	}
	// The highest set bit of (nanos-1) selects the octave; values above the
	// last finite bound land in +Inf.
	i := bits.Len64(uint64(nanos-1)) - histMinExp
	if i >= histBuckets-1 {
		return histBuckets - 1
	}
	return i
}

// Observe records one latency. Negative durations clamp to zero (they can
// only arise from clock steps) so the histogram stays monotone.
func (h *Histogram) Observe(nanos int64) {
	if h == nil {
		return
	}
	if nanos < 0 {
		nanos = 0
	}
	n := h.countAndHotIdx.Add(1)
	hot := &h.counts[n>>63]
	hot.buckets[histBucketOf(nanos)].Add(1)
	hot.sum.Add(nanos)
	hot.count.Add(1) // must be last: signals the observation has fully landed
}

// Snapshot returns a self-consistent copy of the histogram: the returned
// Count equals the sum of the bucket counts, and Sum covers exactly those
// observations. Safe to call concurrently with Observe and with other
// Snapshots.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	h.snapMu.Lock()
	defer h.snapMu.Unlock()
	// Flip the hot bit: observers ticketed after this land in the other
	// buffer. n carries the total number of observations ever begun; the
	// cold buffer is cumulative (snapshots fold it forward), so once the
	// in-flight observers land, cold.count must equal that total.
	n := h.countAndHotIdx.Add(histHotBit)
	began := n & histCountMsk
	hot := &h.counts[n>>63]
	cold := &h.counts[(n>>63)^1]
	for cold.count.Load() != began {
		runtime.Gosched() // a straggler is between its ticket and its count.Add
	}
	var s HistSnapshot
	s.Count = cold.count.Load()
	s.Sum = cold.sum.Load()
	if s.Count > 0 {
		s.Buckets = make([]uint64, histBuckets)
		for i := range s.Buckets {
			s.Buckets[i] = cold.buckets[i].Load()
		}
	}
	// Fold the cold totals into the new hot buffer and reset cold, so the
	// next flip again exposes cumulative totals. Observers are concurrently
	// adding to hot; plain atomic adds compose.
	for i := range cold.buckets {
		if v := cold.buckets[i].Swap(0); v != 0 {
			hot.buckets[i].Add(v)
		}
	}
	hot.sum.Add(cold.sum.Swap(0))
	hot.count.Add(cold.count.Swap(0))
	return s
}

// HistSnapshot is a histogram at one instant: cumulative-consistent (Count
// is exactly the sum of Buckets; Sum covers the same observations). The
// zero value is an empty histogram.
type HistSnapshot struct {
	// Count is the total number of observations.
	Count uint64 `json:"count"`
	// Sum is the total of all observed values, in nanoseconds.
	Sum int64 `json:"sum_ns"`
	// Buckets[i] counts observations in bucket i of the shared scheme
	// (HistBounds; the last entry is the +Inf overflow). Nil when Count is
	// zero.
	Buckets []uint64 `json:"buckets,omitempty"`
}
