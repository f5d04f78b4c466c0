package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"flexile/internal/obs"
)

// BenchmarkWarmAlloc pins the server-side cost of the warm-cache hit path
// with tracing off (no ring) and on (every request traced) — the in-process
// counterpart of bench/'s obs.trace_overhead_frac, useful for attributing
// the delta to allocations rather than loopback-HTTP noise.
func BenchmarkWarmAlloc(b *testing.B) {
	for _, bc := range []struct {
		name  string
		every int // 0 = tracing off
	}{{"plain", 0}, {"traced", 1}, {"sampled", DefaultTraceEvery}} {
		b.Run(bc.name, func(b *testing.B) {
			path, _, _, _ := writeArtifact(b)
			cfg := Config{CacheSize: 64, Workers: 2}
			if bc.every > 0 {
				cfg.Ring = obs.NewTraceRing(0, 0, 0)
				cfg.TraceEvery = bc.every
			}
			srv, err := New(path, cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			req := httptest.NewRequest(http.MethodGet, "/v1/alloc?failed=0", nil)
			srv.ServeHTTP(httptest.NewRecorder(), req) // warm the cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv.ServeHTTP(httptest.NewRecorder(), req)
			}
		})
	}
}
