// Command flexile-load drives seeded open-loop traffic against a live
// flexile-serve instance and prints a JSON summary: counts by disposition,
// latency percentiles, generator lag, goodput, and whether the run is
// valid.
//
// Usage:
//
//	flexile-serve -artifact-dir ./artifacts -listen :8080 &
//	flexile-load -target http://localhost:8080 -artifacts ibm,att \
//	    -qps 200 -duration 5s -batch 8 -tenants 4 -seed 42
//
// The whole request stream — arrival times (Poisson at -qps), tenants,
// per-query artifact and failure state — is a pure function of -seed,
// materialized before the first request fires: two runs at the same seed
// against the same server issue identical streams (-plan prints the
// stream as JSON and exits, which is how the e2e suite proves it).
// Arrivals are open-loop: a slow server faces mounting concurrency
// instead of a backing-off client, so shed-rate measurements are honest —
// and every latency is counted from the moment the request was due, not
// from when it was sent, so a stall in the server or in this generator
// shows up in the requests it delayed. A run whose generator fell behind
// (lag p99 over load.MaxLagP99) reports "valid": false.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"flexile/internal/load"
)

func main() {
	target := flag.String("target", "", "base URL of the server under load (required), e.g. http://localhost:8080")
	seed := flag.Uint64("seed", 1, "seed fixing the whole request stream")
	qps := flag.Float64("qps", 50, "open-loop HTTP request arrival rate")
	duration := flag.Duration("duration", 2*time.Second, "length of the arrival schedule")
	batch := flag.Int("batch", 1, "queries per request (1 = single GET /v1/alloc, >1 = POST /v1/alloc/batch)")
	tenants := flag.Int("tenants", 0, "rotate X-Tenant across this many synthetic tenants (0 = no header)")
	deadline := flag.Duration("deadline", 0, "X-Request-Deadline sent on every request (0 = none)")
	artifacts := flag.String("artifacts", "", "comma-separated artifact names to spread queries across (empty = the server's default artifact)")
	hotFrac := flag.Float64("hot-frac", 0.8, "fraction of queries drawn from the hot scenario set (0 = uniform)")
	hotSet := flag.Int("hot-set", 4, "hot-set size per artifact")
	planOnly := flag.Bool("plan", false, "print the materialized request stream as JSON and exit without firing")
	outPath := flag.String("o", "", "write the summary (or -plan) here instead of stdout")
	flag.Parse()
	if *target == "" {
		fatal(errors.New("-target is required"))
	}

	ctx := context.Background()
	base := strings.TrimRight(*target, "/")
	names := []string{""}
	if *artifacts != "" {
		names = strings.Split(*artifacts, ",")
	}
	scenarios := make(map[string][][]int, len(names))
	for _, n := range names {
		n = strings.TrimSpace(n)
		scens, err := load.FetchScenarios(ctx, base, n)
		if err != nil {
			fatal(err)
		}
		scenarios[n] = scens
	}

	cfg := load.Config{
		Seed:        *seed,
		QPS:         *qps,
		Duration:    *duration,
		Batch:       *batch,
		Tenants:     *tenants,
		Deadline:    *deadline,
		Scenarios:   scenarios,
		HotFraction: *hotFrac,
		HotSet:      *hotSet,
	}
	plan, err := load.BuildPlan(cfg)
	if err != nil {
		fatal(err)
	}

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}
	if *planOnly {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(plan); err != nil {
			fatal(err)
		}
		return
	}

	stats := load.NewStats(nil) // a live server: no oracle to compare bodies with
	if err := load.Run(ctx, base, plan, cfg, stats.Add); err != nil {
		fatal(err)
	}
	sum := stats.Summary()
	if len(sum.FailedIDs) > 0 {
		// The ids double as X-Request-Id on the wire, so each one names the
		// exact server-side trace at /debug/requests (and the access-log
		// record) for the failed sample.
		fmt.Fprintf(os.Stderr, "flexile-load: %d errored entries; failed request ids: %s\n",
			sum.Errors, strings.Join(sum.FailedIDs, ", "))
	}
	if !sum.Valid {
		fmt.Fprintf(os.Stderr, "flexile-load: generator lag p99 %.1fms exceeds %v: latencies include the generator's own stalls\n",
			sum.LagP99Ms, load.MaxLagP99)
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	err = enc.Encode(struct {
		Target string  `json:"target"`
		Seed   uint64  `json:"seed"`
		QPS    float64 `json:"qps"`
		Batch  int     `json:"batch"`
		load.Summary
	}{base, *seed, *qps, *batch, sum})
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flexile-load:", err)
	os.Exit(1)
}
