// Command flexile-serve is the online allocation daemon: it loads serving
// artifacts produced by `flexile -artifact`, then answers failure-state
// allocation queries over HTTP from a per-scenario cache with
// single-flight recomputation.
//
// Usage:
//
//	flexile -topo IBM -artifact ibm.flxa
//	flexile-serve -artifact ibm.flxa -listen :8080
//	curl 'localhost:8080/v1/alloc?failed=3,7'
//	curl localhost:8080/metrics        # Prometheus exposition
//	curl localhost:8080/readyz         # readiness (503 during reloads)
//
// The daemon is always a registry of named artifacts. -artifact F is a
// one-entry registry pinned to that file (named after its basename, so
// the X-Flexile-Artifact header below and /v1/artifacts work there too);
// -artifact-dir D serves every *.flxa in the directory, and a request
// that names no artifact is a 404 unless exactly one is loaded:
//
//	flexile-serve -artifact-dir ./artifacts -listen :8080
//	curl -H 'X-Flexile-Artifact: ibm' 'localhost:8080/v1/alloc?failed=3'
//	curl -d '{"queries":[{"artifact":"ibm","failed":[3]}]}' localhost:8080/v1/alloc/batch
//	curl localhost:8080/v1/artifacts   # per-artifact status
//
// SIGHUP reloads every artifact atomically and per name — a failed reload
// (corrupt or vanished file) keeps the old state serving and never blocks
// a neighbor, and the next SIGHUP after the file is fixed swaps it in —
// and with -artifact-dir rescans the directory. SIGINT/SIGTERM flip
// /readyz to 503 first, drain in-flight requests for up to -drain-timeout,
// then exit.
//
// Overload resilience (DESIGN.md §13): -default-deadline sheds requests
// whose recomputation has not finished by their deadline (clients override
// per request with X-Request-Deadline), and -tenant-rate/-tenant-burst
// enforce per-tenant token-bucket quotas keyed on X-Tenant. A
// recomputation that fails answers 500 and caches nothing: the solve is a
// pure function of the loaded artifact, so retrying it cannot help.
//
// Logs are structured (log/slog): human-readable text on stderr by
// default, one JSON object per line with -logjson. Access records can be
// sampled with -log-sample. With -debug-listen a second, admin-only
// listener additionally serves /metrics, /debug/requests (the live
// request-trace ring, DESIGN.md §16; sample rate set by -trace-sample),
// and net/http/pprof — bind it to loopback or an operations network,
// never the query-facing address.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flexile/internal/obs"
	"flexile/internal/serve"
)

func main() {
	artifact := flag.String("artifact", "", "serve this one artifact file as a one-entry registry (this or -artifact-dir is required; see flexile -artifact)")
	artifactDir := flag.String("artifact-dir", "", "serve every *.flxa in this directory as a named registry")
	listen := flag.String("listen", "127.0.0.1:8080", "listen address")
	debugListen := flag.String("debug-listen", "", "optional admin listener serving /metrics and /debug/pprof (keep it private)")
	cacheSize := flag.Int("cache-size", 1024, "allocation cache entries (0 disables, negative = unbounded)")
	workers := flag.Int("workers", 0, "concurrent recomputation bound (0 = all cores)")
	logSample := flag.Int("log-sample", 1, "log one access record per N requests (1 = every request)")
	traceSample := flag.Int("trace-sample", serve.DefaultTraceEvery, "trace one request per N into /debug/requests (1 = every request; sampled traceparents always trace)")
	logJSON := flag.Bool("logjson", false, "emit logs as JSON instead of text")
	defaultDeadline := flag.Duration("default-deadline", 0, "deadline applied to requests without X-Request-Deadline (0 = none)")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant sustained requests/sec, keyed on X-Tenant (0 disables quotas)")
	tenantBurst := flag.Float64("tenant-burst", 10, "per-tenant token-bucket burst depth")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long to wait for in-flight requests on SIGINT/SIGTERM")
	flag.Parse()
	if (*artifact == "") == (*artifactDir == "") {
		fatal(errors.New("exactly one of -artifact or -artifact-dir is required"))
	}

	logger := newLogger(*logJSON)

	// The collector feeds the live /metrics page.
	collector := obs.New()
	obs.SetGlobal(collector)

	// The trace ring always runs too: /debug/requests should answer on a
	// long-lived daemon even when nobody thought to enable tracing before
	// the incident. -trace-sample only thins how many requests land in it.
	ring := obs.NewTraceRing(0, 0, 0)

	cfg := serve.Config{
		CacheSize:       *cacheSize,
		Workers:         *workers,
		Obs:             collector,
		Log:             logger,
		LogEvery:        *logSample,
		Ring:            ring,
		TraceEvery:      *traceSample,
		DefaultDeadline: *defaultDeadline,
		TenantRate:      *tenantRate,
		TenantBurst:     *tenantBurst,
	}
	source, open := *artifact, serve.New
	if *artifactDir != "" {
		source, open = *artifactDir, serve.NewRegistry
	}
	srv, err := open(source, cfg)
	if err != nil {
		fatal(err)
	}

	stopHUP := srv.WatchHUP(func(err error) {
		logger.Error("reload failed, keeping previous artifact", "error", err.Error())
	})
	defer stopHUP()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	hs := &http.Server{Addr: *listen, Handler: srv}
	done := make(chan error, 1)
	go func() { done <- hs.ListenAndServe() }()
	logger.Info("serving",
		"artifact", source,
		"artifacts", len(srv.Names()),
		"listen", *listen,
		"cache_size", *cacheSize,
		"workers", *workers)

	var admin *http.Server
	if *debugListen != "" {
		adminMux := http.NewServeMux()
		adminMux.Handle("GET /metrics", srv.MetricsHandler())
		adminMux.Handle("GET /debug/requests", srv.DebugRequestsHandler())
		adminMux.HandleFunc("/debug/pprof/", pprof.Index)
		adminMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		adminMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		adminMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		adminMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		admin = &http.Server{Addr: *debugListen, Handler: adminMux}
		go func() {
			if aerr := admin.ListenAndServe(); aerr != nil && !errors.Is(aerr, http.ErrServerClosed) {
				logger.Error("admin listener failed", "error", aerr.Error())
			}
		}()
		logger.Info("admin listener up", "listen", *debugListen, "endpoints", "/metrics /debug/requests /debug/pprof")
	}

	select {
	case <-ctx.Done():
		// Drain sequence: flip /readyz to 503 first so load balancers stop
		// routing here, then wait out in-flight requests, then release the
		// server's own resources (queued detached recomputes unblock).
		srv.BeginDrain()
		shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			logger.Error("shutdown", "error", err.Error())
		}
		<-done // ListenAndServe has returned http.ErrServerClosed
		srv.Close()
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}
	if admin != nil {
		shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		admin.Shutdown(shutCtx)
		cancel()
	}
}

// newLogger builds the process logger: slog text on stderr, or JSON lines
// with jsonOut.
func newLogger(jsonOut bool) *slog.Logger {
	if jsonOut {
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flexile-serve:", err)
	os.Exit(1)
}
