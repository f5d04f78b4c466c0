package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"flexile/internal/obs"
)

// Config tunes a Server and every artifact engine it loads.
type Config struct {
	// CacheSize is the per-artifact allocation-cache capacity in entries
	// (one entry per scenario). 0 disables caching: every query recomputes
	// (still deduplicated by single-flight). Negative means unbounded.
	CacheSize int
	// Workers bounds concurrent recomputations per artifact (par.Workers
	// convention: 0 = NumCPU, negative = 1).
	Workers int
	// Obs receives serving counters; nil falls back to obs.Global().
	Obs *obs.Collector
	// Log receives structured access records (one per request, sampled by
	// LogEvery) and lifecycle events (artifact loads, reload failures,
	// drain). Nil disables logging entirely — the request hot path then
	// takes no logging branches at all.
	Log *slog.Logger
	// LogEvery samples access records: n > 1 logs one request in every n
	// of the process's traffic. 0 and 1 log every request. Lifecycle events
	// are never sampled.
	LogEvery int

	// --- overload resilience (DESIGN.md §13) ---

	// DefaultDeadline applies to allocation queries that carry no
	// X-Request-Deadline header. A deadline bounds the whole request: a
	// cache miss whose shared recomputation has not finished by then is
	// refused with 503 + Retry-After (X-Flexile-Shed: deadline) while the
	// recomputation runs on for later callers. 0 means no deadline —
	// requests wait as long as their client does.
	DefaultDeadline time.Duration
	// TenantRate and TenantBurst configure per-tenant token-bucket
	// quotas keyed on the X-Tenant header; requests without the header
	// share one fair-share default bucket. TenantRate <= 0 disables
	// quotas. TenantBurst below 1 is clamped to 1.
	TenantRate  float64
	TenantBurst float64
	// ComputeHook, when non-nil, runs at the start of every Online
	// recomputation with the scenario index; a returned error (or panic)
	// fails the recomputation. Tests and the chaos harness use it to
	// script slow and failing solves.
	ComputeHook func(scenario int) error

	// --- request-scoped tracing (DESIGN.md §16) ---

	// Ring receives finished request traces and backs GET /debug/requests;
	// one ring covers every artifact. Nil disables request tracing entirely
	// (requests still get an X-Request-Id).
	Ring *obs.TraceRing
	// TraceEvery samples request tracing: n > 1 traces one request in
	// every n of the process's traffic, 1 (or any negative value) traces
	// every request, and 0 picks DefaultTraceEvery — sampling is the
	// tracing budget's lever, amortizing the per-trace cost below 2% of a
	// warm-cache hit. An incoming traceparent with the sampled flag
	// always forces tracing regardless of TraceEvery.
	TraceEvery int

	// loadHook, when non-nil, runs at the start of every artifact (re)load
	// with a per-artifact monotonically increasing attempt number. An error
	// fails the load; tests set it to exercise the reload-failure path.
	loadHook func(attempt int) error
}

// DefaultTraceEvery is the production trace sampling rate: one request in
// every 16 (plus every request arriving with a sampled traceparent). Dense
// enough that /debug/requests is always populated on a busy server, sparse
// enough that tracing stays within its ≤2% warm-path overhead budget
// (bench/'s obs.trace_overhead_frac).
const DefaultTraceEvery = 16

// ArtifactExt is the artifact file extension NewRegistry scans for; the
// basename minus the extension is the artifact's name.
const ArtifactExt = ".flxa"

// maxArtifactName bounds artifact name length; names are filenames and
// metric label values, so they stay short and printable.
const maxArtifactName = 64

// ValidArtifactName reports whether name may address an artifact: 1–64
// characters from [a-zA-Z0-9._-], not starting with '.' or '-'. The charset
// keeps names safe as path segments, header values, and Prometheus label
// values without escaping.
func ValidArtifactName(name string) bool {
	if name == "" || len(name) > maxArtifactName {
		return false
	}
	if name[0] == '.' || name[0] == '-' {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// Server is the one serving front end (DESIGN.md §10): always a registry
// of named artifact engines under one HTTP layer. New pins it to a single
// file, NewRegistry fills it from a directory; routing, reload, drain and
// metrics are the same code for one artifact and for many. Each artifact
// has its own engine, so a corrupt or failing one cannot poison its
// neighbors.
//
// Routes. A per-artifact route names its artifact by the
// X-Flexile-Artifact header, else it goes to the sole loaded artifact.
//
//	GET  /v1/alloc                 one query (?failed=3,7)
//	POST /v1/alloc/batch           many queries, each naming its artifact
//	GET  /v1/info                  artifact identity and sizes
//	GET  /v1/scenarios             enumerated failure states
//	GET  /v1/artifacts             one status row per artifact
//	GET  /healthz /readyz /metrics liveness, readiness, exposition page
//
// The last three answer in one shape however many artifacts are loaded: a
// name→checksum map, an artifact count, and artifact-labelled families.
type Server struct {
	cfg Config
	col *obs.Collector // fleet aggregate the engines' collectors roll up into; may be nil
	mux *http.ServeMux
	// scan lists the artifact files to serve, name → path, reporting files
	// with unusable names in err; a nil map means the scan itself failed.
	scan func() (files map[string]string, err error)

	reloadMu sync.Mutex // serializes Reload sweeps
	// engines is replaced wholesale by Reload, so routing reads it without
	// a lock. Every member has a loaded state.
	engines  atomic.Pointer[engineSet]
	draining atomic.Bool // true after BeginDrain — /readyz says 503 for LB drain
	logSeq   atomic.Int64
	traceSeq atomic.Int64
}

// engineSet is one immutable snapshot of the loaded artifacts.
type engineSet struct {
	byName map[string]*engine
	sorted []*engine // by name
}

// New serves the single artifact file at path: a one-entry registry pinned
// to that file, named after its basename. If the file vanishes or turns
// corrupt, Reload fails and the loaded state keeps serving.
func New(path string, cfg Config) (*Server, error) {
	files := map[string]string{strings.TrimSuffix(filepath.Base(path), ArtifactExt): path}
	return newServer(cfg, path, func() (map[string]string, error) { return files, nil })
}

// NewRegistry serves every *.flxa file in dir as a named artifact; Reload
// rescans the directory, so files may come and go. Startup is strict —
// any invalid artifact or an empty directory fails — because a process
// that boots must be able to answer for every name it advertises; later
// Reloads degrade per name instead (the previous state keeps serving).
func NewRegistry(dir string, cfg Config) (*Server, error) {
	return newServer(cfg, dir, func() (map[string]string, error) {
		paths, err := filepath.Glob(filepath.Join(dir, "*"+ArtifactExt))
		if err != nil {
			return nil, fmt.Errorf("serve: scan %s: %w", dir, err)
		}
		files := make(map[string]string, len(paths))
		var errs []error
		for _, p := range paths {
			name := strings.TrimSuffix(filepath.Base(p), ArtifactExt)
			if !ValidArtifactName(name) {
				errs = append(errs, fmt.Errorf("serve: invalid artifact name %q (%s)", name, p))
				continue
			}
			files[name] = p
		}
		return files, errors.Join(errs...)
	})
}

func newServer(cfg Config, source string, scan func() (map[string]string, error)) (*Server, error) {
	s := &Server{cfg: cfg, col: cfg.Obs, scan: scan}
	if s.col == nil {
		s.col = obs.Global()
	}
	s.engines.Store(&engineSet{})
	s.routes()
	if err := s.Reload(); err != nil {
		s.Close()
		return nil, err
	}
	set := s.engines.Load()
	if len(set.sorted) == 0 {
		return nil, fmt.Errorf("serve: no %s artifacts in %s", ArtifactExt, source)
	}
	return s, nil
}

// Reload sweeps the artifact files: loaded names reload through their own
// engine (so one artifact flapping corrupt fails alone and its neighbors
// still swap in), new files are loaded fresh, and names whose files left
// the scan are dropped and closed.
// Per-name failures are joined into the returned error; every other name
// still (re)loads, and a name that fails to reload keeps serving its
// previous state.
func (s *Server) Reload() error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	files, err := s.scan()
	if files == nil {
		return err
	}
	errs := []error{err}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	old := s.engines.Load()
	next := &engineSet{byName: make(map[string]*engine, len(names))}
	for _, name := range names {
		eng := old.byName[name]
		fresh := eng == nil
		if fresh {
			eng = newEngine(name, files[name], s.cfg, s.col)
		}
		if rerr := eng.reload(); rerr != nil {
			errs = append(errs, fmt.Errorf("artifact %q: %w", name, rerr))
			if fresh { // never loaded: nothing to keep serving
				eng.cancelBase()
				continue
			}
		}
		next.byName[name] = eng
		next.sorted = append(next.sorted, eng)
	}
	s.engines.Store(next)
	for name, eng := range old.byName {
		if next.byName[name] == nil {
			eng.cancelBase()
		}
	}
	return errors.Join(errs...)
}

// resolve maps an artifact name to its engine: "" resolves to the sole
// loaded artifact, anything else must name a loaded artifact. The error
// text is stable per name so unknown-artifact 404 bodies are deterministic.
func (s *Server) resolve(name string) (*engine, error) {
	set := s.engines.Load()
	if name == "" {
		if len(set.sorted) == 1 {
			return set.sorted[0], nil
		}
		return nil, fmt.Errorf("artifact name required: %d artifacts loaded", len(set.sorted))
	}
	if !ValidArtifactName(name) {
		return nil, fmt.Errorf("invalid artifact name %q", name)
	}
	eng := set.byName[name]
	if eng == nil {
		return nil, fmt.Errorf("unknown artifact %q", name)
	}
	return eng, nil
}

// Names returns the sorted names of the loaded artifacts.
func (s *Server) Names() []string {
	set := s.engines.Load()
	names := make([]string, len(set.sorted))
	for i, eng := range set.sorted {
		names[i] = eng.name
	}
	return names
}

// WatchHUP installs a SIGHUP handler that calls Reload until stop is
// called. Reload errors are reported through onErr (which may be nil) and
// leave the previous state of every failing artifact serving.
func (s *Server) WatchHUP(onErr func(error)) (stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGHUP)
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for range ch {
			if err := s.Reload(); err != nil && onErr != nil {
				onErr(err)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			signal.Stop(ch) // no send can follow Stop, so closing ch is safe
			close(ch)
			<-finished
		})
	}
}

// BeginDrain flips /readyz to 503 so load balancers stop routing new
// traffic here, while /v1/alloc keeps answering in-flight and straggler
// queries. Call it on SIGINT/SIGTERM *before* http.Server.Shutdown: the
// readiness probe goes dark first, the LB drains, and only then are
// connections torn down.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		if lg := s.cfg.Log; lg != nil {
			lg.LogAttrs(context.Background(), slog.LevelInfo, "draining",
				slog.String("reason", "readiness flipped to 503 ahead of shutdown"))
		}
	}
}

// Close releases every artifact's detached recomputations still queued on
// its gate. Call it after the HTTP listener has shut down; the server must
// not serve requests afterwards.
func (s *Server) Close() {
	for _, eng := range s.engines.Load().sorted {
		eng.cancelBase()
	}
}
