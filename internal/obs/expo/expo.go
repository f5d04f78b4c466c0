// Package expo renders the observability layer (internal/obs) in the
// Prometheus text exposition format, version 0.0.4 — a from-scratch,
// stdlib-only encoder for the subset the serving stack emits: counter,
// gauge and histogram families with HELP/TYPE header lines, label escaping,
// and cumulative `_bucket`/`_sum`/`_count` histogram rendering.
//
// The package also ships the inverse: Lint, a grammar-conformance checker
// for the same subset, used by the test battery and the `make scrape` CI
// target to prove every rendered page parses (metric-name charset, label
// escape sequences, monotone non-decreasing `le` buckets ending in +Inf,
// `_count` equal to the +Inf bucket).
//
// Everything renders from self-consistent snapshots (obs.Collector.Snapshot
// and obs.Histogram's epoch-consistent Snapshot), so a scrape racing a
// request hammer never observes a `_count`/`_sum` pair from two different
// instants.
package expo

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"flexile/internal/obs"
)

// ContentType is the HTTP Content-Type of a rendered exposition page.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Label is one name="value" pair on a sample line.
type Label struct {
	Name, Value string
}

// Encoder streams one exposition page. Methods latch the first write or
// validation error; check Err once at the end. Families must be emitted
// one at a time (all samples of a name together), which every caller in
// this repo does by construction.
type Encoder struct {
	w    io.Writer
	err  error
	seen map[string]bool
}

// NewEncoder returns an encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{w: w, seen: make(map[string]bool)}
}

// Err returns the first error encountered while encoding, if any.
func (e *Encoder) Err() error { return e.err }

func (e *Encoder) setErr(err error) {
	if e.err == nil {
		e.err = err
	}
}

func (e *Encoder) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	if _, err := fmt.Fprintf(e.w, format, args...); err != nil {
		e.err = err
	}
}

// validName reports whether name matches the metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool { return validIdent(name, true) }

// validLabelName reports whether name matches [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelName(name string) bool { return validIdent(name, false) }

func validIdent(s string, colon bool) bool {
	for i := 0; i < len(s); i++ {
		if !identByte(s[i], i == 0, colon) {
			return false
		}
	}
	return s != ""
}

// identByte reports whether c may appear in a metric name (colon) or a
// label name (!colon), at the first position or later.
func identByte(c byte, first, colon bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', colon && c == ':':
		return true
	case c >= '0' && c <= '9':
		return !first
	}
	return false
}

// escapeHelp escapes a HELP docstring: backslash and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value: backslash, newline and double quote.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// formatValue renders a sample value: Go's shortest float form, with the
// Prometheus spellings of the non-finite values.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// header emits the HELP and TYPE lines for a family, once per page.
func (e *Encoder) header(name, help, typ string) bool {
	if e.err != nil {
		return false
	}
	if !validName(name) {
		e.setErr(fmt.Errorf("expo: invalid metric name %q", name))
		return false
	}
	if e.seen[name] {
		e.setErr(fmt.Errorf("expo: family %q emitted twice", name))
		return false
	}
	e.seen[name] = true
	if help != "" {
		e.printf("# HELP %s %s\n", name, escapeHelp(help))
	}
	e.printf("# TYPE %s %s\n", name, typ)
	return true
}

// sample emits one sample line name{labels} value.
func (e *Encoder) sample(name string, labels []Label, v float64) {
	if e.err != nil {
		return
	}
	var b strings.Builder
	b.WriteString(name)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i, l := range labels {
			if !validLabelName(l.Name) {
				e.setErr(fmt.Errorf("expo: invalid label name %q on %s", l.Name, name))
				return
			}
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Name)
			b.WriteString(`="`)
			b.WriteString(escapeLabel(l.Value))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	e.printf("%s %s\n", b.String(), formatValue(v))
}

// Counter emits a single-sample counter family. By convention the name
// ends in _total.
func (e *Encoder) Counter(name, help string, v float64, labels ...Label) {
	e.family(name, help, "counter", []float64{v}, [][]Label{labels})
}

// CounterVec emits one counter family with several labeled samples; values
// holds one entry per sample, labels one label set per sample.
func (e *Encoder) CounterVec(name, help string, values []float64, labels [][]Label) {
	e.family(name, help, "counter", values, labels)
}

// Gauge emits a single-sample gauge family.
func (e *Encoder) Gauge(name, help string, v float64, labels ...Label) {
	e.family(name, help, "gauge", []float64{v}, [][]Label{labels})
}

// GaugeVec emits one gauge family with several labeled samples; values
// holds one entry per sample, labels one label set per sample.
func (e *Encoder) GaugeVec(name, help string, values []float64, labels [][]Label) {
	e.family(name, help, "gauge", values, labels)
}

func (e *Encoder) family(name, help, typ string, values []float64, labels [][]Label) {
	if e.header(name, help, typ) {
		for i, v := range values {
			e.sample(name, labels[i], v)
		}
	}
}

// histSamples renders one histogram series under an already-emitted family
// header: cumulative _bucket samples over the full shared log-scale bucket
// scheme (scaled by scale — 1e-9 renders nanosecond observations in
// seconds), then _sum and _count. Every finite bound is emitted even when
// empty, so dashboards always see the complete scheme; the +Inf bucket
// always equals _count because the snapshot is epoch-consistent.
func (e *Encoder) histSamples(name string, s obs.HistSnapshot, scale float64, labels []Label) {
	bounds := obs.HistBounds()
	var cum uint64
	for i, b := range bounds {
		if i < len(s.Buckets) {
			cum += s.Buckets[i]
		}
		e.sample(name+"_bucket", append(labels, Label{"le", formatValue(float64(b) * scale)}), float64(cum))
	}
	if len(s.Buckets) == len(bounds)+1 {
		cum += s.Buckets[len(bounds)]
	}
	e.sample(name+"_bucket", append(labels, Label{"le", "+Inf"}), float64(cum))
	e.sample(name+"_sum", labels, float64(s.Sum)*scale)
	e.sample(name+"_count", labels, float64(s.Count))
}

// EncodeSolveMetrics renders the full obs.SolveMetrics tree from its
// schema (obs.Field, obs.HistField): every named counter the
// LP/MIP/decomposition/pool/serve layers aggregate, then the built-in
// latency histograms in seconds. Consecutive rows sharing a name are one
// family; rows with no name are skipped.
func EncodeSolveMetrics(e *Encoder, m obs.SolveMetrics) {
	for _, rows := range m.Groups() {
		for i, j := 0, 0; i < len(rows); i = j {
			for j = i + 1; j < len(rows) && rows[j].Name == rows[i].Name; j++ {
			}
			typ := "counter"
			if rows[i].Kind == obs.Level {
				typ = "gauge"
			}
			if rows[i].Name == "" || !e.header(rows[i].Name, rows[i].Help, typ) {
				continue
			}
			for _, r := range rows[i:j] {
				v := float64(*r.P)
				if r.Kind == obs.Nanos {
					v *= 1e-9
				}
				e.sample(r.Name, rowLabels(r.Label, r.Value), v)
			}
		}
	}
	lat := m.Latency.Fields()
	for i, j := 0, 0; i < len(lat); i = j {
		for j = i + 1; j < len(lat) && lat[j].Name == lat[i].Name; j++ {
		}
		if e.header(lat[i].Name, lat[i].Help, "histogram") {
			for _, r := range lat[i:j] {
				e.histSamples(r.Name, *r.P, 1e-9, rowLabels(r.Label, r.Value))
			}
		}
	}
}

// rowLabels is a schema row's one label, if it has one.
func rowLabels(name, value string) []Label {
	if name == "" {
		return nil
	}
	return []Label{{name, value}}
}

// WritePage renders a complete exposition page: the collector's snapshot,
// any extra families the caller appends (gauges over live server state),
// and the Go runtime metrics. A nil collector renders zero solve counters.
func WritePage(w io.Writer, col *obs.Collector, extra func(*Encoder)) error {
	e := NewEncoder(w)
	EncodeSolveMetrics(e, col.Snapshot())
	if extra != nil {
		extra(e)
	}
	EncodeRuntime(e)
	return e.Err()
}
