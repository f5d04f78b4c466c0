package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"flexile/internal/obs"
)

// maxSpans bounds the span file: a hit workload issues ~100k requests in a
// run, and the first maxSpans of them describe it as well as all of them.
const maxSpans = 20000

// span is one timed call from the harness into a layer of the program.
type span struct {
	Name     string
	Start    time.Time
	End      time.Time
	Parent   int // index of the causing span, -1 for a root
	Workload string
	Op       int
	Lane     int // goroutine lane, the chrome-trace tid
}

// recorder keeps spans in memory until the run ends. A nil *recorder is the
// untraced run: begin returns -1 and end ignores it, so call sites never
// branch on whether tracing is on.
type recorder struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

// begin opens a span and returns its id (-1 when untraced or full).
func (r *recorder) begin(name string, parent, op, lane int) int {
	if r == nil {
		return -1
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= maxSpans {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Start: now, Parent: parent, Workload: r.workload, Op: op, Lane: lane})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// timed runs fn inside a span and returns how long it took in milliseconds;
// it measures even when r is nil, so layer probes use one code path.
func (r *recorder) timed(name string, parent, op int, fn func()) float64 {
	id := r.begin(name, parent, op, 0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.end(id)
	return float64(d) / float64(time.Millisecond)
}

// writeChrome writes the harness spans (pid 1) and, when the solver's own
// timeline was captured, its events (pid 2) as one chrome://tracing file.
func (r *recorder) writeChrome(path string, solver *obs.Tracer) error {
	r.mu.Lock()
	events := make([]obs.TraceEvent, 0, len(r.spans))
	for id, s := range r.spans {
		if s.End.IsZero() {
			continue
		}
		events = append(events, obs.TraceEvent{
			Name: s.Name, Cat: "bench", Ph: "X",
			TS:  s.Start.Sub(r.t0).Microseconds(),
			Dur: s.End.Sub(s.Start).Microseconds(),
			PID: 1, TID: int64(s.Lane),
			Args: map[string]any{"id": id, "parent": s.Parent, "workload": s.Workload, "op": s.Op},
		})
	}
	r.mu.Unlock()
	for _, e := range solver.Events() {
		e.PID = 2
		events = append(events, e)
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
