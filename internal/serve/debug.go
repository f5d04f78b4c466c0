package serve

import (
	"encoding/json"
	"fmt"
	"html/template"
	"net/http"
	"strings"
	"time"

	"flexile/internal/obs"
)

// GET /debug/requests (DESIGN.md §16): the live introspection page over
// the request-trace ring, in the spirit of golang.org/x/net/trace — the
// most recent, the slowest, and the most recent errored requests, each
// with its stage-span timeline. Three renderings:
//
//	/debug/requests                  HTML for humans
//	/debug/requests?format=json      the raw TraceSnapshots
//	/debug/requests?format=chrome    chrome://tracing / perfetto timeline
//
// The page is mounted on the -debug-listen admin listener by
// cmd/flexile-serve, next to /metrics and pprof, so it is never exposed on
// the serving port.

// DebugRequestsHandler returns the /debug/requests handler over the
// server's trace ring; one ring, so one page, covers every artifact. With
// no ring configured the handler answers 404.
func (s *Server) DebugRequestsHandler() http.Handler {
	ring := s.cfg.Ring
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ring == nil {
			writeError(w, http.StatusNotFound, "request tracing is not enabled (no trace ring configured)")
			return
		}
		recent, slowest, errored := ring.Recent(), ring.Slowest(), ring.Errored()
		switch r.URL.Query().Get("format") {
		case "", "html":
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			debugTmpl.Execute(w, struct {
				Total                    uint64
				Recent, Slowest, Errored []obs.TraceSnapshot
			}{ring.Total(), recent, slowest, errored})
		case "json":
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", " ")
			enc.Encode(map[string]any{
				"total":   ring.Total(),
				"recent":  recent,
				"slowest": slowest,
				"errored": errored,
			})
		case "chrome":
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Disposition", `attachment; filename="flexile-requests-trace.json"`)
			writeChromeTimeline(w, recent)
		default:
			writeError(w, http.StatusBadRequest, "unknown format (want html, json, or chrome)")
		}
	})
}

// writeChromeTimeline exports the recent traces as a chrome://tracing
// timeline: one virtual track per trace, timestamps relative to the oldest
// exported request.
func writeChromeTimeline(w http.ResponseWriter, traces []obs.TraceSnapshot) {
	var base time.Time
	for _, t := range traces {
		if base.IsZero() || t.Start.Before(base) {
			base = t.Start
		}
	}
	evs := make([]obs.TraceEvent, 0, 8*len(traces))
	for i, t := range traces {
		evs = append(evs, t.TraceEvents(base, int64(i+1))...)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(map[string]any{"traceEvents": evs})
}

// debugTmpl renders the HTML page. html/template contextually escapes
// every interpolated value, so hostile tenant names, request ids, or
// traceparent-derived ids cannot inject markup.
var debugTmpl = template.Must(template.New("debug").Funcs(template.FuncMap{
	"dur":   fmtDur,
	"spans": fmtSpans,
	"when":  func(t time.Time) string { return t.Format("15:04:05.000") },
}).Parse(`<!DOCTYPE html>
<html><head><title>flexile /debug/requests</title><style>
body { font-family: monospace; margin: 1em 2em; }
h1 { font-size: 1.2em; } h2 { font-size: 1em; margin-top: 1.5em; }
table { border-collapse: collapse; width: 100%; }
th, td { text-align: left; padding: 2px 10px 2px 0; border-bottom: 1px solid #ddd; vertical-align: top; }
th { color: #555; } .num { text-align: right; }
.spans { color: #666; } .err { color: #a00; } .shed { color: #a60; }
</style></head><body>
<h1>flexile request traces</h1>
<p>{{.Total}} traced since start · <a href="?format=json">json</a> · <a href="?format=chrome">chrome://tracing</a></p>
{{define "table"}}<table>
<tr><th>start</th><th>method path</th><th class="num">status</th><th class="num">dur</th><th>cache</th><th>tenant</th><th>ids</th><th>stage spans</th></tr>
{{range .}}<tr>
<td>{{when .Start}}</td>
<td>{{.Method}} {{.Path}}</td>
<td class="num{{if ge .Status 400}} err{{end}}">{{.Status}}{{if .Shed}} <span class="shed">shed={{.Shed}}</span>{{end}}</td>
<td class="num">{{dur .Dur}}</td>
<td>{{.Cache}}</td>
<td>{{.Tenant}}</td>
<td>req={{.RequestID}}<br>trace={{.TraceID}}</td>
<td class="spans">{{spans .Spans}}</td>
</tr>{{end}}
</table>{{end}}
<h2>recent ({{len .Recent}})</h2>{{template "table" .Recent}}
<h2>slowest ({{len .Slowest}})</h2>{{template "table" .Slowest}}
<h2>errored ({{len .Errored}})</h2>{{template "table" .Errored}}
</body></html>
`))

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	}
	return fmt.Sprintf("%.3fs", d.Seconds())
}

// fmtSpans renders a span list compactly, in recorded order; nested spans
// are bracketed to mark them as overlapping the tiling stages rather than
// part of the sum.
func fmtSpans(spans []obs.SpanRec) string {
	parts := make([]string, 0, len(spans))
	for _, sp := range spans {
		s := sp.Name + " " + fmtDur(sp.Dur)
		if sp.Nested {
			s = "[" + s + "]"
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, " · ")
}
