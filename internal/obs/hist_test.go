package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

func TestHistBoundsMonotone(t *testing.T) {
	bounds := HistBounds()
	if len(bounds) != histBuckets-1 {
		t.Fatalf("got %d bounds, want %d", len(bounds), histBuckets-1)
	}
	if len(bounds) < 8 {
		t.Fatalf("exposition needs >= 8 finite buckets, scheme has %d", len(bounds))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("bounds not strictly increasing at %d: %d <= %d", i, bounds[i], bounds[i-1])
		}
	}
	if bounds[0] != 256 || bounds[len(bounds)-1] != 1<<34 {
		t.Fatalf("bounds range = [%d, %d]", bounds[0], bounds[len(bounds)-1])
	}
}

func TestHistBucketOf(t *testing.T) {
	bounds := HistBounds()
	for _, c := range []struct {
		v    int64
		want int
	}{
		{0, 0}, {1, 0}, {255, 0}, {256, 0}, // first bucket is (-inf, 256]
		{257, 1}, {512, 1}, {513, 2},
		{1 << 34, histBuckets - 2},       // last finite bound, inclusive
		{1<<34 + 1, histBuckets - 1},     // overflow
		{math.MaxInt64, histBuckets - 1}, // way overflow
	} {
		if got := histBucketOf(c.v); got != c.want {
			t.Errorf("histBucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Cross-check against the published bounds: a value equal to a bound
	// must land in that bound's bucket (le is inclusive, the Prometheus
	// convention), one past it in the next.
	for i, b := range bounds {
		if got := histBucketOf(b); got != i {
			t.Fatalf("histBucketOf(bound %d = %d) = %d", i, b, got)
		}
		if got := histBucketOf(b + 1); got != i+1 {
			t.Fatalf("histBucketOf(bound %d + 1) = %d, want %d", i, got, i+1)
		}
	}
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	var h Histogram
	h.Observe(100)  // bucket 0
	h.Observe(300)  // bucket 1
	h.Observe(-5)   // clamps to 0, bucket 0
	h.Observe(1e12) // ~16.7min, +Inf bucket
	s := h.Snapshot()
	if s.Count != 4 || s.Sum != 100+300+0+1e12 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Buckets[0] != 2 || s.Buckets[1] != 1 || s.Buckets[histBuckets-1] != 1 {
		t.Fatalf("buckets = %v", s.Buckets)
	}
	var total uint64
	for _, b := range s.Buckets {
		total += b
	}
	if total != s.Count {
		t.Fatalf("bucket sum %d != count %d", total, s.Count)
	}
	// Snapshots are cumulative: a second snapshot with no new observations
	// is identical.
	s2 := h.Snapshot()
	if s2.Count != s.Count || s2.Sum != s.Sum {
		t.Fatalf("second snapshot diverged: %+v vs %+v", s2, s)
	}
}

func TestHistogramNilIsNoOp(t *testing.T) {
	var h *Histogram
	h.Observe(5)
	if s := h.Snapshot(); s.Count != 0 || s.Buckets != nil {
		t.Fatalf("nil histogram snapshot = %+v", s)
	}
}

// TestHistogramSnapshotEpochConsistency is the satellite fix's proof: with
// every observation carrying the same value v, ANY self-consistent snapshot
// must satisfy Sum == v*Count and sum(Buckets) == Count — a snapshot torn
// across two instants (count from one epoch, sum from another) fails one of
// the two. Snapshots run concurrently with a full-rate observer hammer.
func TestHistogramSnapshotEpochConsistency(t *testing.T) {
	const v = 1000 // bucket 2 (513..1024]
	var h Histogram
	var stop atomic.Bool
	var wg sync.WaitGroup
	const observers = 4
	for g := 0; g < observers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				h.Observe(v)
			}
		}()
	}
	for i := 0; i < 500; i++ {
		s := h.Snapshot()
		if s.Sum != int64(s.Count)*v {
			t.Fatalf("torn snapshot: count %d, sum %d (want %d)", s.Count, s.Sum, int64(s.Count)*v)
		}
		var total uint64
		for _, b := range s.Buckets {
			total += b
		}
		if total != s.Count {
			t.Fatalf("torn snapshot: bucket sum %d != count %d", total, s.Count)
		}
	}
	stop.Store(true)
	wg.Wait()
	// Final quiescent snapshot still carries every observation.
	s := h.Snapshot()
	if s.Sum != int64(s.Count)*v {
		t.Fatalf("final snapshot torn: %+v", s)
	}
}

func TestHistogramConcurrentExact(t *testing.T) {
	var h Histogram
	const goroutines, perG = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(int64(g*perG + i))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	n := int64(goroutines * perG)
	if int64(s.Count) != n || s.Sum != n*(n-1)/2 {
		t.Fatalf("count %d sum %d, want %d / %d", s.Count, s.Sum, n, n*(n-1)/2)
	}
}
