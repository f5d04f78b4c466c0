package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
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
//	/debug/requests?format=json      the raw traces
//	/debug/requests?format=chrome    chrome://tracing / perfetto timeline of the recent traces
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
			writeDebugPage(w, ring.Total(), recent, slowest, errored)
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
			obs.WriteChrome(w, recent)
		default:
			writeError(w, http.StatusBadRequest, "unknown format (want html, json, or chrome)")
		}
	})
}

// The page's fixed text. debugPageHead ends before the trace count,
// debugTableHead opens each of the three tables, and debugRow is one
// trace, every %s an escaped value.
const (
	debugPageHead = `<!DOCTYPE html>
<html><head><title>flexile /debug/requests</title><style>
body { font-family: monospace; margin: 1em 2em; }
h1 { font-size: 1.2em; } h2 { font-size: 1em; margin-top: 1.5em; }
table { border-collapse: collapse; width: 100%; }
th, td { text-align: left; padding: 2px 10px 2px 0; border-bottom: 1px solid #ddd; vertical-align: top; }
th { color: #555; } .num { text-align: right; }
.spans { color: #666; } .err { color: #a00; } .shed { color: #a60; }
</style></head><body>
<h1>flexile request traces</h1>
`
	debugTableHead = `<table>
<tr><th>start</th><th>method path</th><th class="num">status</th><th class="num">dur</th><th>cache</th><th>tenant</th><th>ids</th><th>stage spans</th></tr>
`
	debugRow = `<tr>
<td>%s</td>
<td>%s %s</td>
<td class="num%s">%d%s</td>
<td class="num">%s</td>
<td>%s</td>
<td>%s</td>
<td>req=%s<br>trace=%s</td>
<td class="spans">%s</td>
</tr>`
)

// htmlEscape escapes a value for an HTML text node with html/template's
// own replacement table: unlike html.EscapeString it also replaces '+'
// and NUL. Every value the page prints goes through it, so hostile tenant
// names, request ids, or traceparent-derived ids cannot inject markup.
// The page is written by hand rather than by html/template, whose
// reflective method lookup keeps the linker from dropping any unused
// method from the daemon's binary.
var htmlEscape = strings.NewReplacer(
	"\x00", "\uFFFD",
	`"`, "&#34;",
	"&", "&amp;",
	"'", "&#39;",
	"+", "&#43;",
	"<", "&lt;",
	">", "&gt;",
).Replace

// writeDebugPage renders the HTML page over the ring's three buckets.
func writeDebugPage(w io.Writer, total uint64, recent, slowest, errored []*obs.Trace) {
	io.WriteString(w, debugPageHead)
	fmt.Fprintf(w, "<p>%d traced since start · <a href=\"?format=json\">json</a> · <a href=\"?format=chrome\">chrome://tracing</a></p>\n", total)
	for _, bucket := range []struct {
		name   string
		traces []*obs.Trace
	}{{"recent", recent}, {"slowest", slowest}, {"errored", errored}} {
		fmt.Fprintf(w, "\n<h2>%s (%d)</h2>%s", bucket.name, len(bucket.traces), debugTableHead)
		for _, t := range bucket.traces {
			errClass, shed := "", ""
			if t.Status >= 400 {
				errClass = " err"
			}
			if t.Shed != "" {
				shed = ` <span class="shed">shed=` + htmlEscape(t.Shed) + "</span>"
			}
			fmt.Fprintf(w, debugRow, t.Start.Format("15:04:05.000"), htmlEscape(t.Method), htmlEscape(t.Path),
				errClass, t.Status, shed, htmlEscape(fmtDur(t.Dur)), htmlEscape(t.Cache), htmlEscape(t.Tenant),
				htmlEscape(t.RequestID), htmlEscape(t.TraceID), htmlEscape(fmtSpans(t.Spans)))
		}
		io.WriteString(w, "\n</table>")
	}
	io.WriteString(w, "\n</body></html>\n")
}

func fmtDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	}
	return fmt.Sprintf("%.3fs", d.Seconds())
}

// fmtSpans renders a span list compactly, in start order, so a recompute
// reads as its descent (recompute, class round, levels, LP solves); nested
// spans are bracketed to mark them as overlapping the tiling stages rather
// than part of the sum. A name recorded more than once — the levels and LP
// solves — is shown once, at its first place, with its count and summed
// duration.
func fmtSpans(spans []obs.SpanRec) string {
	spans = append([]obs.SpanRec(nil), spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	type group struct {
		sp obs.SpanRec
		n  int
	}
	var groups []group
	at := make(map[string]int, len(spans))
	for _, sp := range spans {
		if i, ok := at[sp.Name]; ok {
			groups[i].sp.Dur += sp.Dur
			groups[i].n++
			continue
		}
		at[sp.Name] = len(groups)
		groups = append(groups, group{sp, 1})
	}
	parts := make([]string, 0, len(groups))
	for _, g := range groups {
		s := g.sp.Name + " " + fmtDur(g.sp.Dur)
		if g.n > 1 {
			s = fmt.Sprintf("%s ×%d %s", g.sp.Name, g.n, fmtDur(g.sp.Dur))
		}
		if g.sp.Nested {
			s = "[" + s + "]"
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, " · ")
}
