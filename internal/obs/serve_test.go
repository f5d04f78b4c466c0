package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestServeMetricsRollup(t *testing.T) {
	root := New()
	child := NewChild(root)
	child.AddServe(ServeMetrics{Requests: 3, CacheHits: 2, CacheMisses: 1, Recomputes: 1, GateWaits: 2})
	child.AddServe(ServeMetrics{Requests: 1, BadRequests: 1, Reloads: 1, ReloadErrors: 1, FlightShared: 1})
	for name, s := range map[string]SolveMetrics{"child": child.Snapshot(), "root": root.Snapshot()} {
		sv := s.Serve
		if sv.Requests != 4 || sv.BadRequests != 1 || sv.CacheHits != 2 || sv.CacheMisses != 1 {
			t.Fatalf("%s Serve = %+v", name, sv)
		}
		if sv.Recomputes != 1 || sv.FlightShared != 1 || sv.Reloads != 1 || sv.ReloadErrors != 1 || sv.GateWaits != 2 {
			t.Fatalf("%s Serve = %+v", name, sv)
		}
	}
}

func TestServeMetricsNilAndCanonical(t *testing.T) {
	var nilC *Collector
	nilC.AddServe(ServeMetrics{Requests: 1})        // must not panic
	nilC.ObserveLatency(LatServeRequest, time.Hour) // must not panic

	c := New()
	c.AddServe(ServeMetrics{Requests: 2, CacheHits: 1})
	c.ObserveLatency(LatServeRequest, 12345*time.Nanosecond)
	got := c.Snapshot().Canonical()
	want := SolveMetrics{}
	want.Serve = ServeMetrics{Requests: 2, CacheHits: 1} // latency histograms are scheduling-dependent
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Canonical() = %+v, want %+v", got, want)
	}
}

func TestServeMetricsConcurrentExact(t *testing.T) {
	c := New()
	const goroutines, perG = 8, 400
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.AddServe(ServeMetrics{Requests: 1, CacheMisses: 1})
				c.ObserveLatency(LatServeRequest, 2*time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Serve.Requests != goroutines*perG || s.Serve.CacheMisses != goroutines*perG {
		t.Fatalf("Serve = %+v", s.Serve)
	}
	if lat := s.Latency.ServeRequest; lat.Count != goroutines*perG || lat.Sum != 2*goroutines*perG {
		t.Fatalf("ServeRequest latency = %+v", lat)
	}
}

// TestServeLatencyRollupThroughParentChain mirrors the counter rollup test
// for the histogram path: one observation lands in the child's histogram
// and in every ancestor's.
func TestServeLatencyRollupThroughParentChain(t *testing.T) {
	root := New()
	child := NewChild(root)
	child.ObserveLatency(LatServeRequest, 1500*time.Nanosecond)
	for name, s := range map[string]SolveMetrics{"child": child.Snapshot(), "root": root.Snapshot()} {
		if lat := s.Latency.ServeRequest; lat.Count != 1 || lat.Sum != 1500 {
			t.Fatalf("%s latency = %+v", name, lat)
		}
	}
}

func TestServeMetricsJSONKeys(t *testing.T) {
	c := New()
	c.AddServe(ServeMetrics{Requests: 1, CacheHits: 1, Reloads: 1, GateWaits: 1})
	c.ObserveLatency(LatServeRequest, time.Microsecond)
	b := c.Snapshot().JSON()
	var back SolveMetrics
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b)
	}
	if !reflect.DeepEqual(back.Serve, c.Snapshot().Serve) {
		t.Fatalf("round trip mismatch: %+v vs %+v", back.Serve, c.Snapshot().Serve)
	}
	for _, key := range []string{`"serve"`, `"cache_hits"`, `"cache_misses"`, `"reloads"`, `"gate_waits"`, `"latency"`, `"serve_request"`} {
		if !strings.Contains(string(b), key) {
			t.Fatalf("JSON output missing %s:\n%s", key, b)
		}
	}
}

// TestFlushAllocatesNothing: a flush builds its schema rows on the stack,
// so adding a delta through a child→root chain allocates nothing — the
// reason the schema is a concrete array and not a slice.
func TestFlushAllocatesNothing(t *testing.T) {
	child := NewChild(New())
	serve := ServeMetrics{Requests: 1, CacheHits: 1, BatchEntries: 2}
	lp := LPMetrics{Solves: 1, Pivots: 7, SolveNanos: 300}
	for name, flush := range map[string]func(){
		"AddServe": func() { child.AddServe(serve) },
		"AddLP":    func() { child.AddLP(lp) },
	} {
		if n := testing.AllocsPerRun(200, flush); n != 0 {
			t.Errorf("%s: %v allocs per flush, want 0", name, n)
		}
	}
}
