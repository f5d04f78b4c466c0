package obs

import (
	"math"
	"math/rand"
	"sort"
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

// TestHistogramQuantileAccuracy feeds adversarial distributions and checks
// the estimated quantile lands within one bucket of the exact order
// statistic — the bound the log-scale scheme promises.
func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	distributions := map[string][]int64{
		"point-mass-at-bound":  repeat(1<<20, 5000),
		"point-mass-past-bnd":  repeat(1<<20+1, 5000),
		"tiny-values":          repeat(3, 1000),
		"bimodal-far":          append(repeat(300, 900), repeat(1<<30, 100)...),
		"heavy-overflow":       append(repeat(1<<10, 100), repeat(1<<35, 900)...),
		"geometric-every-bkt":  geometricSpread(),
		"uniform-random":       randomVals(rng, 20000, 1<<22),
		"log-uniform-random":   logUniform(rng, 20000),
		"single-observation":   {777},
		"two-extreme-outliers": append(repeat(500, 9998), 1, 1<<40),
	}
	quantiles := []float64{0.5, 0.9, 0.99, 0.999, 1.0}
	for name, vals := range distributions {
		var h Histogram
		for _, v := range vals {
			h.Observe(v)
		}
		s := h.Snapshot()
		sorted := append([]int64(nil), vals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, q := range quantiles {
			rank := int(math.Ceil(q * float64(len(sorted))))
			if rank < 1 {
				rank = 1
			}
			exact := sorted[rank-1]
			est := s.Quantile(q)
			// The +Inf bucket can only promise the largest finite bound.
			wantBucket := histBucketOf(exact)
			if wantBucket == histBuckets-1 {
				if est != float64(int64(1)<<histMaxExp) {
					t.Errorf("%s q=%v: overflow estimate %v, want last bound", name, q, est)
				}
				continue
			}
			gotBucket := histBucketOf(int64(math.Ceil(est)))
			if diff := gotBucket - wantBucket; diff < -1 || diff > 1 {
				t.Errorf("%s q=%v: estimate %v (bucket %d) vs exact %d (bucket %d)",
					name, q, est, gotBucket, exact, wantBucket)
			}
		}
	}
}

func TestHistQuantileEdgeCases(t *testing.T) {
	var empty HistSnapshot
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
	var h Histogram
	h.Observe(1000)
	s := h.Snapshot()
	if got := s.Quantile(-1); got <= 0 {
		t.Fatalf("clamped-low quantile = %v", got)
	}
	if got := s.Quantile(2); got <= 0 {
		t.Fatalf("clamped-high quantile = %v", got)
	}
}

func repeat(v int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func geometricSpread() []int64 {
	var out []int64
	for e := 0; e <= 36; e++ {
		out = append(out, repeat(int64(1)<<e, 100)...)
	}
	return out
}

func randomVals(rng *rand.Rand, n int, max int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63n(max)
	}
	return out
}

func logUniform(rng *rand.Rand, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(math.Exp(rng.Float64() * math.Log(1e10)))
	}
	return out
}
