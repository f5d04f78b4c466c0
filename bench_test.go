// Benchmarks regenerating every table and figure of the paper at Tiny
// scale (two small topologies, ~12 scenarios) so `go test -bench .`
// finishes in minutes on one core. The flexile-exp command runs the same
// harnesses at small/paper scale. Reported custom metrics surface each
// figure's headline number so benchmark output doubles as a results table.
package flexile_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"flexile"
	"flexile/internal/experiments"
	"flexile/internal/lp"
	"flexile/internal/obs"
	"flexile/internal/serve"
	"flexile/internal/te"
)

func tinyCfg() experiments.Config {
	return experiments.Config{Scale: experiments.Tiny, Seed: 1}
}

// BenchmarkFig1Motivation regenerates the §3 motivating example
// (Figs. 1-4): every scheme on the triangle.
func BenchmarkFig1Motivation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1Motivation()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.PercLoss["Flexile"], "flexile-loss-%")
		b.ReportMetric(100*res.PercLoss["SMORE"], "smore-loss-%")
	}
}

// BenchmarkFig5 regenerates the per-flow percentile-loss CDF (IBM).
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(tinyCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Worst["Flexile"], "flexile-worst-%")
		b.ReportMetric(100*res.Worst["Teavar"], "teavar-worst-%")
	}
}

// BenchmarkFig6 regenerates the ScenLoss-penalty-vs-optimal CDF (IBM).
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(tinyCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.PenaltyAt["Flexile"][0], "flexile-pen999-%")
		b.ReportMetric(100*res.PenaltyAt["Teavar"][0], "teavar-pen999-%")
	}
}

// BenchmarkFig9 regenerates the emulation-testbed comparison (one run per
// scheme at benchmark scale; the CLI uses five).
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(tinyCfg(), 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.PCC, "model-emu-pcc")
		b.ReportMetric(100*res.MaxAbsDiff, "max-diff-%")
	}
}

// BenchmarkFig10 regenerates the Flexile-vs-SWAN two-class comparison.
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig10(tinyCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Medians["Flexile"], "flexile-med-%")
		b.ReportMetric(100*res.Medians["SWAN-Maxmin"], "swanmm-med-%")
	}
}

// BenchmarkFig11 regenerates the Teavar/CVaR-variant comparison.
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig11(tinyCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Medians["Flexile"], "flexile-med-%")
		b.ReportMetric(100*res.Medians["Teavar"], "teavar-med-%")
	}
}

// BenchmarkFig12 regenerates the richly-connected comparison and the §6.2
// headline reductions (paper: 46% vs SMORE, 63% vs Teavar).
func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig12(tinyCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MedianReductionVsSMORE, "red-vs-smore-%")
		b.ReportMetric(res.MedianReductionVsTeavar, "red-vs-teavar-%")
	}
}

// BenchmarkFig13 regenerates the per-scenario worst-flow analysis (Sprint,
// two classes).
func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig13(tinyCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.LowLossAt999["Flexile"], "flexile-low999-%")
	}
}

// BenchmarkFig14 regenerates the per-iteration optimality-gap convergence.
func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig14(tinyCfg(), 5)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.FracOptimalAtIter) > 0 {
			b.ReportMetric(100*res.FracOptimalAtIter[0], "opt-at-iter1-%")
			b.ReportMetric(100*res.FracOptimalAtIter[4], "opt-at-iter5-%")
		}
	}
}

// BenchmarkFig15 regenerates the solving-time comparison (Flexile
// decomposition vs direct IP).
func BenchmarkFig15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig15(tinyCfg(), 150)
		if err != nil {
			b.Fatal(err)
		}
		var fx, ip float64
		for i := range res.Topologies {
			fx += res.FlexileT[i].Seconds()
			ip += res.IPT[i].Seconds()
		}
		b.ReportMetric(fx, "flexile-total-s")
		b.ReportMetric(ip, "ip-total-s")
	}
}

// BenchmarkFig18 regenerates the appendix max-scale experiment.
func BenchmarkFig18(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig18(tinyCfg(), []string{"Sprint"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MaxScale["Flexile"][0], "flexile-scale")
		b.ReportMetric(res.MaxScale["SWAN-Maxmin"][0], "swanmm-scale")
	}
}

// BenchmarkTable2 regenerates the topology inventory (all 20 topologies).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table2()
		for _, info := range res.Rows {
			tp, err := flexile.LoadTopology(info.Name)
			if err != nil {
				b.Fatal(err)
			}
			if tp.G.NumNodes() != info.Nodes || tp.G.NumEdges() != info.Edges {
				b.Fatalf("%s shape mismatch", info.Name)
			}
		}
	}
}

// BenchmarkOfflineDecomposition isolates the offline phase (the paper's
// Fig. 15 focus) on one mid-size topology.
func BenchmarkOfflineDecomposition(b *testing.B) {
	inst, err := tinyCfg().SingleClass("IBM")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flexile.Design(inst, flexile.DesignOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOfflineParallel measures the scenario-parallel solve engine: it
// times one sequential (Workers=1) offline run as the baseline, then the
// timed loop runs with every core, and reports the wall-clock speedup. On
// a single-core machine the speedup hovers around 1.0 by construction;
// results are bit-for-bit identical either way (see
// TestOfflineDeterministicAcrossWorkers).
func BenchmarkOfflineParallel(b *testing.B) {
	inst, err := tinyCfg().SingleClass("IBM")
	if err != nil {
		b.Fatal(err)
	}
	seqStart := time.Now()
	if _, err := flexile.Design(inst, flexile.DesignOptions{Workers: 1}); err != nil {
		b.Fatal(err)
	}
	seq := time.Since(seqStart)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flexile.Design(inst, flexile.DesignOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if par := b.Elapsed() / time.Duration(b.N); par > 0 {
		b.ReportMetric(seq.Seconds()/par.Seconds(), "speedup-x")
	}
	b.ReportMetric(float64(runtime.NumCPU()), "workers")
}

// BenchmarkOfflineParallelMetrics is BenchmarkOfflineParallel's timed loop
// with the observability collector installed process-wide, so comparing the
// two benchmarks measures the metrics overhead directly. Budget: ≤2%
// (DESIGN.md §9) — counters flush once per solve, never per pivot.
func BenchmarkOfflineParallelMetrics(b *testing.B) {
	inst, err := tinyCfg().SingleClass("IBM")
	if err != nil {
		b.Fatal(err)
	}
	obs.SetGlobal(obs.New())
	defer obs.SetGlobal(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flexile.Design(inst, flexile.DesignOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	m := obs.Global().Snapshot()
	b.ReportMetric(float64(m.LP.Pivots)/float64(b.N), "pivots/op")
	b.ReportMetric(float64(m.Decomp.CutsGenerated)/float64(b.N), "cuts/op")
}

// BenchmarkOnlineAllocation isolates the online phase: one failure
// reaction, the latency that §4.3 keeps comparable to SWAN.
func BenchmarkOnlineAllocation(b *testing.B) {
	inst, err := tinyCfg().SingleClass("IBM")
	if err != nil {
		b.Fatal(err)
	}
	design, err := flexile.Design(inst, flexile.DesignOptions{})
	if err != nil {
		b.Fatal(err)
	}
	// The online phase takes no context, so its LP work lands on the
	// process-global collector: the counts that explain the time.
	col := obs.New()
	obs.SetGlobal(col)
	defer obs.SetGlobal(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := 1 + i%(len(inst.Scenarios)-1)
		if _, _, err := flexile.AllocateOnFailure(inst, design, q, flexile.DesignOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	m := col.Snapshot().LP
	b.ReportMetric(float64(m.Pivots)/float64(b.N), "pivots/op")
	b.ReportMetric(float64(m.Solves)/float64(b.N), "lp-solves/op")
}

// BenchmarkSimplexKernels is the per-pivot cost of the simplex at width, in
// the repo rather than in a traced harness run: cold solves of the ATT
// no-failure max-concurrent-flow LP over te.NewAlloc (one column per tunnel,
// one capacity row per link, one demand row per flow — the ScenLoss LP a
// design-wide Design starts with). ns/pivot is what the solves through the
// basis factorization cost (the LP build is well under 1 % of an op);
// factor-nnz is the nonzeros per row those solves visit: L, U and the eta
// file at the end of the solve.
func BenchmarkSimplexKernels(b *testing.B) {
	inst, err := experiments.Config{Scale: experiments.Small, MaxScenarios: 4, Seed: 1}.SingleClass("ATT")
	if err != nil {
		b.Fatal(err)
	}
	var a *te.Alloc
	var sol *lp.Solution
	pivots := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, a, sol, err = te.MaxConcurrentScale(inst, te.NoFailure(), nil); err != nil {
			b.Fatal(err)
		}
		pivots += sol.Iterations
	}
	rows := float64(a.LP.NumRows())
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pivots), "ns/pivot")
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
	b.ReportMetric(float64(sol.FactorNonzeros)/rows, "factor-nnz")
}

// instanceSink keeps BenchmarkNewInstance's result live.
var instanceSink *flexile.Instance

// BenchmarkNewInstance is instance construction: every pair's §6 tunnels,
// picked from Yen pools of hop-count shortest paths (DESIGN.md §2.3). ATT
// single-class runs one 12-path pool per pair; Tinet two-class is the
// high-priority class's 12-path pool plus the low-priority class's 15-path
// pool. ATT single-class is the construction a traced design-wide run of
// the bench/ harness reports as tunnels.select_ms.
func BenchmarkNewInstance(b *testing.B) {
	for _, c := range []struct {
		name     string
		twoClass bool
	}{{"ATT", false}, {"Tinet", true}} {
		b.Run(c.name, func(b *testing.B) {
			tp, err := flexile.LoadTopology(c.name)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.twoClass {
					instanceSink = flexile.NewTwoClassInstance(tp)
				} else {
					instanceSink = flexile.NewSingleClassInstance(tp, 3)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/op")
		})
	}
}

// BenchmarkServeQuery measures the serving path end to end (request parse
// → scenario lookup → allocation → JSON): a cold miss recomputes the
// online allocation, a warm hit returns the cached marshaled bytes. Both
// report p50/p99 request latency, so the run shows tail behavior of the
// serving layer, not just the offline solve; the hit path must be orders
// of magnitude cheaper than a miss.
func BenchmarkServeQuery(b *testing.B) {
	inst, err := tinyCfg().SingleClass("IBM")
	if err != nil {
		b.Fatal(err)
	}
	design, err := flexile.Design(inst, flexile.DesignOptions{})
	if err != nil {
		b.Fatal(err)
	}
	blob, err := flexile.ExportArtifact(inst, design, flexile.DesignOptions{})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.flxa")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		b.Fatal(err)
	}
	urls := make([]string, len(inst.Scenarios))
	for q, scen := range inst.Scenarios {
		var parts []string
		for _, e := range scen.Failed {
			parts = append(parts, strconv.Itoa(e))
		}
		urls[q] = "/v1/alloc?failed=" + strings.Join(parts, ",")
	}

	query := func(b *testing.B, srv *serve.Server, q int) time.Duration {
		req := httptest.NewRequest("GET", urls[q], nil)
		rec := httptest.NewRecorder()
		start := time.Now()
		srv.ServeHTTP(rec, req)
		elapsed := time.Since(start)
		if rec.Code != 200 {
			b.Fatalf("scenario %d: status %d: %s", q, rec.Code, rec.Body)
		}
		return elapsed
	}
	reportPercentiles := func(b *testing.B, lat []time.Duration) {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds()), "p50-ns")
		b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds()), "p99-ns")
	}

	b.Run("miss", func(b *testing.B) {
		// cache-size 0: every query recomputes the allocation.
		srv, err := serve.New(path, serve.Config{CacheSize: 0})
		if err != nil {
			b.Fatal(err)
		}
		lat := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lat = append(lat, query(b, srv, i%len(urls)))
		}
		b.StopTimer()
		reportPercentiles(b, lat)
	})
	b.Run("hit", func(b *testing.B) {
		srv, err := serve.New(path, serve.Config{CacheSize: len(urls)})
		if err != nil {
			b.Fatal(err)
		}
		for q := range urls { // warm every scenario
			query(b, srv, q)
		}
		lat := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lat = append(lat, query(b, srv, i%len(urls)))
		}
		b.StopTimer()
		reportPercentiles(b, lat)
	})
	// overload runs the admission pipeline hot: a tight per-tenant quota
	// sheds part of the serial request stream; the shed-rate is reported
	// alongside the happy paths' latencies.
	b.Run("overload", func(b *testing.B) {
		collector := obs.New()
		srv, err := serve.New(path, serve.Config{
			CacheSize:   0,
			Obs:         collector,
			TenantRate:  50,
			TenantBurst: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("GET", urls[i%len(urls)], nil))
			if rec.Code != 200 && rec.Code != 429 {
				b.Fatalf("unexpected status %d: %s", rec.Code, rec.Body)
			}
		}
		b.StopTimer()
		m := collector.Snapshot().Serve
		b.ReportMetric(float64(m.QuotaRejects)/float64(m.Requests), "shed-rate")
	})
}

// BenchmarkServeBatch measures what batching buys per HTTP round-trip on a
// warm cache: one POST /v1/alloc/batch carrying 32 queries versus 32
// single GETs. The amortization-x metric — single round-trips per batch
// round-trip at equal query count — is the headline (the PR 8 floor is
// 3×); p50/p99 track the batch path's own tail.
func BenchmarkServeBatch(b *testing.B) {
	inst, err := tinyCfg().SingleClass("IBM")
	if err != nil {
		b.Fatal(err)
	}
	design, err := flexile.Design(inst, flexile.DesignOptions{})
	if err != nil {
		b.Fatal(err)
	}
	blob, err := flexile.ExportArtifact(inst, design, flexile.DesignOptions{})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "bench.flxa")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		b.Fatal(err)
	}
	srv, err := serve.New(path, serve.Config{CacheSize: len(inst.Scenarios), Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	// Real loopback HTTP, not in-process ServeHTTP: the quantity under test
	// is per-round-trip overhead (connection handling, request parse,
	// header writes, syscalls), which is exactly what batching amortizes.
	ts := httptest.NewServer(srv)
	defer ts.Close()
	client := &http.Client{}
	defer client.CloseIdleConnections()

	const batch = 32
	queries := make([]serve.BatchQuery, batch)
	urls := make([]string, batch)
	for i := range queries {
		failed := inst.Scenarios[i%len(inst.Scenarios)].Failed
		queries[i] = serve.BatchQuery{Failed: failed}
		var parts []string
		for _, e := range failed {
			parts = append(parts, strconv.Itoa(e))
		}
		urls[i] = ts.URL + "/v1/alloc?failed=" + strings.Join(parts, ",")
	}
	body, err := json.Marshal(serve.BatchRequest{Queries: queries})
	if err != nil {
		b.Fatal(err)
	}

	roundTrip := func(req *http.Request) time.Duration {
		start := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			b.Fatalf("%s %s: status %d", req.Method, req.URL.Path, resp.StatusCode)
		}
		return time.Since(start)
	}
	single := func(i int) time.Duration {
		req, err := http.NewRequest("GET", urls[i%batch], nil)
		if err != nil {
			b.Fatal(err)
		}
		return roundTrip(req)
	}
	postBatch := func() time.Duration {
		req, err := http.NewRequest("POST", ts.URL+"/v1/alloc/batch", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		return roundTrip(req)
	}

	// Warm every scenario the bodies touch, then measure the single-GET
	// baseline untimed: mean ns per warm round-trip over a fixed pass.
	for i := 0; i < batch; i++ {
		single(i)
	}
	postBatch()
	const baselinePasses = 512
	var singleTotal time.Duration
	for i := 0; i < baselinePasses; i++ {
		singleTotal += single(i)
	}
	singleMean := float64(singleTotal) / baselinePasses

	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lat = append(lat, postBatch())
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	var batchTotal time.Duration
	for _, l := range lat {
		batchTotal += l
	}
	batchMean := float64(batchTotal) / float64(len(lat))
	b.ReportMetric(batch*singleMean/batchMean, "amortization-x")
	b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds()), "p50-ns")
	b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds()), "p99-ns")
	b.ReportMetric(batch, "queries/op")
}

// BenchmarkPacketEmulation isolates the packet engine on one scenario.
func BenchmarkPacketEmulation(b *testing.B) {
	inst, err := tinyCfg().SingleClass("Sprint")
	if err != nil {
		b.Fatal(err)
	}
	r, err := flexile.NewSMORE().Route(inst)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flexile.EmulatePacket(inst, r, flexile.EmulationOptions{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
