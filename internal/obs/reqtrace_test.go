package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseTraceparent(t *testing.T) {
	tc, ok := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if !ok {
		t.Fatal("valid traceparent rejected")
	}
	if tc.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" || tc.SpanID != "00f067aa0ba902b7" || !tc.Sampled {
		t.Fatalf("parsed %+v", tc)
	}
	if got := tc.String(); got != "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01" {
		t.Fatalf("String round-trip: %q", got)
	}
	if tc, ok := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00"); !ok || tc.Sampled {
		t.Fatalf("unsampled flag: ok=%v sampled=%v", ok, tc.Sampled)
	}

	for _, bad := range []string{
		"",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",      // truncated
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",   // unknown version
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",   // uppercase hex
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",   // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",   // zero span id
		"00-4bf92f3577b34da6a3ce929d0e0e473z-00f067aa0ba902b7-01",   // non-hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736_00f067aa0ba902b7-01",   // bad separator
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-x", // trailing junk
	} {
		if _, ok := ParseTraceparent(bad); ok {
			t.Errorf("accepted malformed traceparent %q", bad)
		}
	}
}

func TestNewReqTraceIdentity(t *testing.T) {
	a, b := NewRequestTrace("r1"), NewRequestTrace("r2")
	for _, tr := range []*Trace{a, b} {
		tp := tr.Traceparent()
		tc, ok := ParseTraceparent(tp)
		if !ok {
			t.Fatalf("minted traceparent %q does not parse", tp)
		}
		if tc.TraceID != tr.TraceID || tc.SpanID != tr.SpanID || !tc.Sampled {
			t.Fatalf("traceparent %q disagrees with ids %s/%s", tp, tr.TraceID, tr.SpanID)
		}
	}
	if a.TraceID == b.TraceID || a.SpanID == b.SpanID {
		t.Fatalf("consecutive traces share ids: %s %s", a.TraceID, b.TraceID)
	}

	a.SetParent(TraceContext{TraceID: strings.Repeat("ab", 16), SpanID: strings.Repeat("cd", 8), Sampled: true})
	if a.TraceID != strings.Repeat("ab", 16) || a.ParentSpan != strings.Repeat("cd", 8) {
		t.Fatalf("SetParent: %s parent %s", a.TraceID, a.ParentSpan)
	}
	want := "00-" + strings.Repeat("ab", 16) + "-" + a.SpanID + "-01"
	if got := a.Traceparent(); got != want {
		t.Fatalf("joined traceparent %q, want %q", got, want)
	}
}

func TestReqTraceFinishFreezesSpans(t *testing.T) {
	tr := NewRequestTrace("req-1")
	base := tr.Start
	tr.AddSpan("parse", base, base.Add(time.Millisecond), false)
	tr.Finish(200, 42, 3, "hit", "")
	tr.AddSpan("late", base, base.Add(time.Hour), true) // detached recompute outliving the request
	tr.Finish(500, 0, -1, "", "quota")                  // second Finish must not win

	if len(tr.Spans) != 1 || tr.Spans[0].Name != "parse" {
		t.Fatalf("spans after Finish: %+v", tr.Spans)
	}
	if tr.Status != 200 || tr.Bytes != 42 || tr.Scenario != 3 || tr.Cache != "hit" || tr.Shed != "" {
		t.Fatalf("summary did not latch first Finish: %+v", tr)
	}
	if tr.Dur <= 0 {
		t.Fatalf("finished trace has dur %v", tr.Dur)
	}

	// Nil receivers are no-ops (untraced requests share the code path).
	var nilTrace *Trace
	nilTrace.AddSpan("x", base, base, false)
	nilTrace.Finish(0, 0, 0, "", "")
}

func TestReqTraceConcurrentSpans(t *testing.T) {
	tr := NewRequestTrace("req-conc")
	base := tr.Start
	record := func() {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					tr.AddSpan(fmt.Sprintf("g%d-%d", g, i), base, base.Add(time.Duration(i)*time.Microsecond), g%2 == 0, "i", i)
				}
			}(g)
		}
		wg.Wait()
	}
	record()
	tr.Finish(200, 0, 0, "hit", "")
	record() // every late span is dropped
	if n := len(tr.Spans); n != 8*50 {
		t.Fatalf("recorded %d spans, want %d", n, 8*50)
	}
	for _, sp := range tr.Spans {
		if sp.Name == "" || sp.Args["i"] == nil {
			t.Fatalf("torn span %+v", sp)
		}
	}
}

// TestWriteChromeRequestTrace checks the rendering of a request trace on a
// chrome timeline: one enclosing request event, then one event per span,
// all on the request's track, nested spans in category "nested".
func TestWriteChromeRequestTrace(t *testing.T) {
	tr := NewRequestTrace("req-ev")
	tr.Method, tr.Path = "GET", "/v1/alloc"
	base := tr.Start
	tr.AddSpan("cache", base, base.Add(2*time.Millisecond), false)
	tr.AddSpan("recompute", base, base.Add(time.Millisecond), true)
	tr.AddSpan("lp-solve", base.Add(time.Millisecond/2), base.Add(time.Millisecond), true, "pivots", 7)
	tr.Finish(200, 10, 1, "miss", "")

	var buf strings.Builder
	if err := WriteChrome(&buf, []*Trace{tr}); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var out struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &out); err != nil {
		t.Fatalf("timeline not valid JSON: %v", err)
	}
	evs := out.TraceEvents
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	if evs[0].Name != "GET /v1/alloc" || evs[0].TS != 0 || evs[0].Args["request_id"] != "req-ev" {
		t.Fatalf("request event: %+v", evs[0])
	}
	for _, ev := range evs[1:] {
		if ev.TID != evs[0].TID {
			t.Fatalf("span %q on track %d, request on %d", ev.Name, ev.TID, evs[0].TID)
		}
	}
	if evs[1].Cat != "span" || evs[2].Cat != "nested" || evs[3].Cat != "nested" {
		t.Fatalf("span cats: %s %s %s", evs[1].Cat, evs[2].Cat, evs[3].Cat)
	}
	if evs[1].TS != evs[0].TS || evs[1].Dur != 2000 || evs[3].TS != 500 {
		t.Fatalf("stage timing: ts %d vs %d, dur %d, lp ts %d", evs[1].TS, evs[0].TS, evs[1].Dur, evs[3].TS)
	}
	if evs[3].Args["pivots"] != float64(7) {
		t.Fatalf("lp-solve args: %v", evs[3].Args)
	}
}

// TestTracerConcurrentRecord exercises the Span API and Adopt from
// concurrent goroutines; the race detector is the assertion.
func TestTracerConcurrentRecord(t *testing.T) {
	tracer := NewTracer()
	col := New()
	col.AttachTracer(tracer)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				end := col.Span(fmt.Sprintf("solve-%d-%d", g, i), int64(g))
				end()
				tr := NewRequestTrace(fmt.Sprintf("r-%d-%d", g, i))
				tr.Finish(200, 0, 0, "hit", "")
				tracer.Adopt(tr)
			}
		}(g)
	}
	wg.Wait()
	var buf strings.Builder
	if err := tracer.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var out struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &out); err != nil {
		t.Fatalf("timeline not valid JSON: %v", err)
	}
	if len(out.TraceEvents) != 4*25*2 {
		t.Fatalf("timeline has %d events, want %d", len(out.TraceEvents), 4*25*2)
	}
}
