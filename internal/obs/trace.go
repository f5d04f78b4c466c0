package obs

import (
	"context"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// One span model (DESIGN.md §9, §16). A Trace is a list of SpanRecs timed
// from the trace's Start, and two kinds of timeline share the type:
//
//   - a process timeline (NewTracer) attached to a Collector, behind the
//     CLIs' -trace file: the decomposition's iteration, scenario and master
//     spans on per-worker tracks, plus every finished request trace the
//     server adopts onto it;
//   - a request trace (NewRequestTrace) carried on a request's context:
//     W3C identity, the serving stages, and — through the context the
//     recomputation hands te.MaxMinCtx and lp — the class rounds, levels
//     and LP solves beneath a cache miss.
//
// Every rendering reads the same records: /debug/requests and its JSON
// read a request trace's fields, and one chrome://tracing writer
// (Trace.WriteJSON, which WriteChrome feeds) serves both the -trace file
// and /debug/requests?format=chrome.

// SpanRec is one recorded span; Start is its offset from the trace's Start.
// Track is the virtual timeline row it renders on (a solver worker, or an
// adopted request). Nested marks a request span that overlaps the tiling
// stages — queueing, the recompute and everything beneath it, batch
// per-group stages; the non-nested spans of a request partition its
// wall-clock, so their durations sum to (approximately) the served latency.
// Args are the span's attributes, nil when it has none.
type SpanRec struct {
	Name   string         `json:"name"`
	Start  time.Duration  `json:"start_ns"`
	Dur    time.Duration  `json:"dur_ns"`
	Track  int64          `json:"track,omitempty"`
	Nested bool           `json:"nested,omitempty"`
	Args   map[string]any `json:"args,omitempty"`
}

// Trace is one timeline of spans. Safe for concurrent recording; a nil
// *Trace is a no-op recorder, so call sites never branch on whether anyone
// is tracing.
//
// The identity and request-line fields of a request trace are set before
// the request is served and never mutated afterwards. The summary fields
// and Spans are written under the trace's lock until Finish. A finished
// trace is immutable — late spans from a detached recomputation that
// outlives its request are dropped, not raced — so once Finish has
// returned it may be read without locking (the TraceRing holds finished
// traces only). A process timeline is never finished: read it through
// Events.
type Trace struct {
	TraceID    string    `json:"trace_id"`
	SpanID     string    `json:"span_id"`
	ParentSpan string    `json:"parent_span,omitempty"` // caller's span id from traceparent
	RequestID  string    `json:"request_id"`
	Method     string    `json:"method"`
	Path       string    `json:"path"`
	Tenant     string    `json:"tenant,omitempty"`
	Start      time.Time `json:"start"`

	// The request summary, latched by Finish.
	Dur      time.Duration `json:"dur_ns"`
	Status   int           `json:"status"`
	Bytes    int           `json:"bytes"`
	Scenario int           `json:"scenario"`
	Cache    string        `json:"cache,omitempty"`
	Shed     string        `json:"shed,omitempty"`

	Spans []SpanRec `json:"spans"`

	// tp is the rendered outgoing traceparent; TraceID and SpanID are
	// substrings of it, so the three share one allocation.
	tp string

	mu       sync.Mutex
	finished bool
	// spansBuf backs Spans so the common few-span request trace needs no
	// separate slice allocation; overflow falls back to the heap via append.
	spansBuf [8]SpanRec
	// adopted counts the request traces a process timeline has adopted.
	adopted int64
}

// Tracer is a process timeline: the name the CLIs and the benchmark
// harness use for the Trace they attach to a Collector.
type Tracer = Trace

// NewTracer returns a process timeline that starts now.
func NewTracer() *Trace { return &Trace{Start: time.Now()} }

// AddSpan records one span by absolute start and end times on track 0; kv
// is an alternating key, value list kept as the span's args. Safe for
// concurrent use (batch groups and the detached recomputation record from
// their own goroutines); a span arriving after Finish is dropped.
func (t *Trace) AddSpan(name string, start, end time.Time, nested bool, kv ...any) {
	if t == nil {
		return
	}
	t.add(SpanRec{Name: name, Start: start.Sub(t.Start), Dur: end.Sub(start), Nested: nested, Args: spanArgs(kv)})
}

func (t *Trace) add(sp SpanRec) {
	t.mu.Lock()
	if !t.finished {
		t.Spans = append(t.Spans, sp)
	}
	t.mu.Unlock()
}

func spanArgs(kv []any) map[string]any {
	if len(kv) < 2 {
		return nil
	}
	args := make(map[string]any, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		if k, ok := kv[i].(string); ok {
			args[k] = kv[i+1]
		}
	}
	return args
}

// Finish latches the request summary and freezes the span list.
// Idempotent; the first call wins.
func (t *Trace) Finish(status, bytes, scenario int, cache, shed string) {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	if !t.finished {
		t.finished = true
		t.Dur = end.Sub(t.Start)
		t.Status = status
		t.Bytes = bytes
		t.Scenario = scenario
		t.Cache = cache
		t.Shed = shed
	}
	t.mu.Unlock()
}

// --- the process timeline ---

// AttachTracer fastens the process timeline t to the collector: Span calls
// on the collector (and on its descendants, via the parent chain) record
// into t.
func (c *Collector) AttachTracer(t *Trace) {
	if c != nil {
		c.tracer = t
	}
}

// TraceSink resolves the process timeline attached nearest up the
// collector's parent chain, or nil.
func (c *Collector) TraceSink() *Trace {
	for ; c != nil; c = c.parent {
		if c.tracer != nil {
			return c.tracer
		}
	}
	return nil
}

// Span opens a timeline span named name on virtual track tid; the returned
// func closes it. kv is an alternating key, value list attached as the
// span's args. When no timeline is attached anywhere up the chain, the cost
// is one nil check and the returned closure is a shared no-op.
func (c *Collector) Span(name string, tid int64, kv ...any) func() {
	t := c.TraceSink()
	if t == nil {
		return nopSpan
	}
	args := spanArgs(kv)
	begin := time.Now()
	return func() {
		end := time.Now()
		t.add(SpanRec{Name: name, Start: begin.Sub(t.Start), Dur: end.Sub(begin), Track: tid, Args: args})
	}
}

var nopSpan = func() {}

// Adopted request traces render on reqTracks virtual tracks from
// reqTrackBase on — away from the solver's per-worker tracks — assigned
// round-robin so concurrent requests don't render as one overlapping pile.
const (
	reqTrackBase = 1000
	reqTracks    = 64
)

// Adopt lands a finished request trace r on the timeline t: one enclosing
// span named "METHOD path" carrying the request's identity and summary,
// then every span r recorded, all on one track. Nil on either side is a
// no-op.
func (t *Trace) Adopt(r *Trace) {
	if t == nil || r == nil {
		return
	}
	t.mu.Lock()
	t.adopted++
	track := reqTrackBase + t.adopted%reqTracks
	off := r.Start.Sub(t.Start)
	t.Spans = append(t.Spans, SpanRec{
		Name:  r.Method + " " + r.Path,
		Start: off,
		Dur:   r.Dur,
		Track: track,
		Args: map[string]any{
			"trace_id":   r.TraceID,
			"request_id": r.RequestID,
			"status":     r.Status,
			"cache":      r.Cache,
			"scenario":   r.Scenario,
		},
	})
	for _, sp := range r.Spans {
		sp.Start += off
		sp.Track = track
		t.Spans = append(t.Spans, sp)
	}
	t.mu.Unlock()
}

// --- the chrome://tracing writer ---

// TraceEvent is one complete ("ph":"X") event in the Chrome tracing JSON
// format (chrome://tracing, perfetto). Timestamps and durations are in
// microseconds per the format's convention.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	PID  int64          `json:"pid"`
	TID  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// Events converts the timeline's spans to chrome://tracing complete events,
// one per span with tid = its track; nested spans get category "nested".
func (t *Trace) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	evs := make([]TraceEvent, len(t.Spans))
	for i, sp := range t.Spans {
		cat := "span"
		if sp.Nested {
			cat = "nested"
		}
		evs[i] = TraceEvent{
			Name: sp.Name,
			Cat:  cat,
			Ph:   "X",
			TS:   sp.Start.Microseconds(),
			Dur:  sp.Dur.Microseconds(),
			PID:  1,
			TID:  sp.Track,
			Args: sp.Args,
		}
	}
	return evs
}

// WriteJSON serializes the timeline as a chrome://tracing JSON object.
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}{t.Events()})
}

// WriteChrome writes finished request traces as one chrome://tracing
// timeline that starts at the earliest of them, each adopted onto a track
// of its own.
func WriteChrome(w io.Writer, traces []*Trace) error {
	tl := &Trace{}
	for _, r := range traces {
		if tl.Start.IsZero() || r.Start.Before(tl.Start) {
			tl.Start = r.Start
		}
	}
	for _, r := range traces {
		tl.Adopt(r)
	}
	return tl.WriteJSON(w)
}

// --- context carry ---

type traceKey struct{}

// WithTrace returns a context carrying the request trace t; a nil t returns
// ctx itself, so an untraced request pays no context allocation.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom returns the request trace carried by ctx, or nil. A nil ctx is
// allowed.
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}
