package obs

import (
	crand "crypto/rand"
	"encoding/binary"
	"sync/atomic"
	"time"
)

// Request identity (DESIGN.md §16). A request trace is a Trace that carries
// a W3C trace-context trace id and span id, so traces correlate across the
// load generator, the batch fan-out, and future peer forwarding. It is built
// for the serving hot path: creating one is two allocations (the trace and
// its rendered traceparent), and recording a span is one mutex round and an
// append into preallocated capacity.

// TraceContext is a parsed W3C traceparent: the caller's trace id, the
// caller's span id (our parent), and the sampled flag.
type TraceContext struct {
	TraceID string // 32 lowercase hex chars, not all zero
	SpanID  string // 16 lowercase hex chars, not all zero
	Sampled bool
}

// String renders the context as a version-00 traceparent header value.
func (tc TraceContext) String() string {
	flags := "00"
	if tc.Sampled {
		flags = "01"
	}
	return "00-" + tc.TraceID + "-" + tc.SpanID + "-" + flags
}

// ParseTraceparent parses a W3C traceparent header (version 00:
// "00-<32 hex trace-id>-<16 hex span-id>-<2 hex flags>"). Malformed values,
// unknown versions, and all-zero ids are rejected — the caller falls back
// to starting a fresh trace.
func ParseTraceparent(h string) (TraceContext, bool) {
	if len(h) != 55 || h[0] != '0' || h[1] != '0' || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return TraceContext{}, false
	}
	traceID, spanID, flags := h[3:35], h[36:52], h[53:55]
	if !isLowerHex(traceID) || !isLowerHex(spanID) || !isLowerHex(flags) {
		return TraceContext{}, false
	}
	if allZero(traceID) || allZero(spanID) {
		return TraceContext{}, false
	}
	return TraceContext{
		TraceID: traceID,
		SpanID:  spanID,
		Sampled: hexByte(flags)&0x01 != 0,
	}, true
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

func hexByte(s string) byte {
	nib := func(c byte) byte {
		if c <= '9' {
			return c - '0'
		}
		return c - 'a' + 10
	}
	return nib(s[0])<<4 | nib(s[1])
}

// --- id generation ---
//
// Trace and span ids must be unique, not cryptographically unpredictable:
// a per-process random base mixed with an atomic counter through splitmix64
// costs a few nanoseconds per id, versus ~1µs for a crypto/rand read —
// which matters because ids are minted on the warm-cache hot path, where
// tracing is budgeted at ≤2% (bench/'s obs.trace_overhead_frac).

var traceIDBase = func() uint64 {
	var b [8]byte
	crand.Read(b[:])
	return binary.LittleEndian.Uint64(b[:]) | 1 // never zero
}()

var traceIDSeq atomic.Uint64

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

const lowerHexDigits = "0123456789abcdef"

func appendHex64(dst []byte, v uint64) []byte {
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, lowerHexDigits[(v>>uint(shift))&0xf])
	}
	return dst
}

// newTraceparent mints a fresh trace in rendered header form,
// "00-<trace id>-<span id>-01". One string allocation backs the whole
// identity: the Trace slices its TraceID and SpanID out of it.
func newTraceparent() string {
	n := traceIDSeq.Add(1)
	a := splitmix64(traceIDBase + n)
	b := splitmix64(a ^ traceIDBase)
	buf := make([]byte, 0, 55)
	buf = append(buf, '0', '0', '-')
	buf = appendHex64(buf, a)
	buf = appendHex64(buf, b)
	buf = append(buf, '-')
	buf = appendHex64(buf, splitmix64(b+n))
	buf = append(buf, '-', '0', '1')
	return string(buf)
}

// NewRequestTrace starts a trace for one request: fresh ids, the clock
// running.
func NewRequestTrace(requestID string) *Trace {
	tp := newTraceparent()
	t := &Trace{
		TraceID:   tp[3:35],
		SpanID:    tp[36:52],
		RequestID: requestID,
		Start:     time.Now(),
		Scenario:  -1,
		tp:        tp,
	}
	t.Spans = t.spansBuf[:0]
	return t
}

// SetParent joins the trace to an incoming traceparent: the caller's trace
// id is adopted and its span id becomes our parent. Call before serving.
func (t *Trace) SetParent(tc TraceContext) {
	t.TraceID = tc.TraceID
	t.ParentSpan = tc.SpanID
	t.tp = "00-" + tc.TraceID + "-" + t.SpanID + "-01"
}

// Traceparent renders the outgoing traceparent header for this trace. The
// sampled flag is always set: a trace object only exists for requests that
// are being recorded.
func (t *Trace) Traceparent() string {
	return t.tp
}
