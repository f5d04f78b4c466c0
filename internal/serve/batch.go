package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"flexile/internal/admit"
	"flexile/internal/obs"
)

// DefaultMaxBatch is the per-request query limit of POST /v1/alloc/batch.
// Large enough to amortize HTTP+admission overhead across a burst of
// failure states, small enough that one envelope stays well under
// maxBatchBody even for maximum-size failure sets.
const DefaultMaxBatch = 64

// maxBatchBody bounds how much of a batch request body the server reads.
const maxBatchBody = 8 << 20

// BatchQuery is one allocation query inside a batch request. Artifact
// names the artifact ("" means the one the request's X-Flexile-Artifact
// header names, else the sole artifact); Failed is the failure state, the
// edge list GET /v1/alloc?failed= carries.
type BatchQuery struct {
	Artifact string `json:"artifact,omitempty"`
	Failed   []int  `json:"failed"`
}

// BatchRequest is the POST /v1/alloc/batch envelope.
type BatchRequest struct {
	Queries []BatchQuery `json:"queries"`
}

// BatchEntry is one result in a batch response, positionally matching the
// request's queries. Status is the entry's would-be single-request HTTP
// status; for 200s Body holds exactly the bytes GET /v1/alloc would have
// written, and Cache is the X-Flexile-Cache header's value (hit | miss).
// Non-200 entries carry the single-request error text in Error, and sheds
// mirror X-Flexile-Shed and Retry-After in Shed/RetryAfter.
type BatchEntry struct {
	Status     int             `json:"status"`
	Artifact   string          `json:"artifact,omitempty"`
	Scenario   int             `json:"scenario"`
	Cache      string          `json:"cache,omitempty"`
	Shed       string          `json:"shed,omitempty"`
	RetryAfter int             `json:"retry_after,omitempty"`
	Error      string          `json:"error,omitempty"`
	Body       json.RawMessage `json:"body,omitempty"`
}

// BatchResponse is the POST /v1/alloc/batch response envelope.
type BatchResponse struct {
	Results []BatchEntry `json:"results"`
}

// ParseBatchRequest decodes and validates a batch envelope: at most
// maxBatchBody bytes, exactly one JSON object, no unknown fields. The
// contract matches ParseQuery: arbitrary bytes yield either a canonical
// request (every query's Failed sorted, deduplicated, in-range) or a
// wrapped ErrBadRequest — never a panic. Envelope-level strictness is
// deliberate: one malformed query rejects the whole batch, so a 200
// envelope always answers every query the client sent.
func ParseBatchRequest(data []byte, maxBatch int) (*BatchRequest, error) {
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	if len(data) > maxBatchBody {
		return nil, fmt.Errorf("%w: batch body of %d bytes exceeds %d", ErrBadRequest, len(data), maxBatchBody)
	}
	var req BatchRequest
	d := json.NewDecoder(bytes.NewReader(data))
	d.DisallowUnknownFields()
	if err := d.Decode(&req); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if d.More() {
		return nil, fmt.Errorf("%w: trailing data after batch object", ErrBadRequest)
	}
	if len(req.Queries) == 0 {
		return nil, fmt.Errorf("%w: batch carries no queries", ErrBadRequest)
	}
	if len(req.Queries) > maxBatch {
		return nil, fmt.Errorf("%w: %d queries exceed the %d-query batch limit", ErrBadRequest, len(req.Queries), maxBatch)
	}
	for i := range req.Queries {
		var err error
		if req.Queries[i].Failed, err = canonicalize(req.Queries[i].Failed); err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
	}
	return &req, nil
}

// readBatch reads a batch request: the envelope and its one deadline.
func (s *Server) readBatch(r *http.Request) (*BatchRequest, time.Duration, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBatchBody+1))
	if err != nil {
		return nil, 0, fmt.Errorf("reading body: %w", err)
	}
	req, err := ParseBatchRequest(body, DefaultMaxBatch)
	if err != nil {
		return nil, 0, err
	}
	deadline, err := admit.ParseDeadline(r.Header.Get("X-Request-Deadline"), s.cfg.DefaultDeadline)
	return req, deadline, err
}

// handleBatch serves POST /v1/alloc/batch (DESIGN.md §14). One HTTP
// request carries many allocation queries; a query that names no artifact
// rides the request's own X-Flexile-Artifact header (none: the sole
// artifact). Each query keeps per-entry admission semantics (quota on the
// resolved engine's buckets, deadline), and the admitted entries fan out
// concurrently through each engine's existing cache/gate/flight pipeline,
// so a state repeated within a batch is answered as repeated single
// requests are. Entry bodies are the exact bytes the single-query path
// would have written.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	top := obs.ServeMetrics{BatchRequests: 1}
	defer func() {
		s.col.AddServe(top)
		s.col.ObserveLatency(obs.LatServeRequest, time.Since(start))
	}()
	// The top-level lapper tiles the serial phases of the batch (parse →
	// admit → flight barrier → write); each stage-2 entry records its own
	// nested spans from its goroutine.
	tr := obs.TraceFrom(r.Context())
	lap := &lapper{tr: tr, col: s.col, last: start}

	req, deadline, err := s.readBatch(r)
	if err != nil {
		top.BadRequests = 1
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	lap.Lap("parse", obs.LatStageParse)
	tenant := r.Header.Get("X-Tenant")
	def := addressed(r)

	waitCtx, cancel := waitContext(r, start, deadline)
	defer cancel()

	// Stage 1 (serial, cheap): resolve each query's artifact and charge its
	// tenant quota on the owning engine. Entries rejected here never reach
	// a worker. acct accumulates each engine's counters so one batch costs
	// each collector a single add; an entry naming no loaded artifact is
	// counted on the root alone.
	entries := make([]BatchEntry, len(req.Queries))
	engs := make([]*engine, len(req.Queries)) // nil: answered in stage 1
	acct := make(map[*engine]*obs.ServeMetrics)
	for i, qy := range req.Queries {
		name := qy.Artifact
		if name == "" {
			name = def
		}
		eng, rerr := s.resolve(name)
		if rerr != nil {
			top.BatchEntries++
			top.BadRequests++
			entries[i] = BatchEntry{Status: http.StatusNotFound, Artifact: qy.Artifact, Scenario: -1, Error: rerr.Error()}
			continue
		}
		if acct[eng] == nil {
			acct[eng] = new(obs.ServeMetrics)
		}
		acct[eng].BatchEntries++
		if refusal, ok := eng.admit(tenant); !ok {
			acct[eng].Add(refusal.metrics())
			entries[i] = batchEntry(eng.name, refusal)
			continue
		}
		engs[i] = eng
	}
	lap.Lap("admit", obs.LatStageAdmit)

	// Stage 2 (concurrent): one allocate per admitted entry; the per-engine
	// gate still bounds actual recomputation concurrency, so a wide batch
	// cannot stampede the solver any harder than wide single requests.
	res := make([]allocResult, len(req.Queries))
	var wg sync.WaitGroup
	for i, eng := range engs {
		if eng == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			failed := req.Queries[i].Failed
			elap := &lapper{tr: tr, col: eng.col, last: time.Now(), nested: true, tag: failedKey(failed)}
			res[i] = eng.allocate(waitCtx, &AllocRequest{Failed: failed})
			elap.alloc(res[i])
		}()
	}
	wg.Wait()
	lap.Lap("flight", obs.LatStageFlight)

	// Every admitted entry is counted exactly like a single request.
	for i, eng := range engs {
		if eng != nil {
			acct[eng].Add(res[i].metrics())
			entries[i] = batchEntry(eng.name, res[i])
		}
	}
	for eng, d := range acct {
		eng.col.AddServe(*d)
	}

	w.Header().Set("Content-Type", "application/json")
	writeBatchResponse(w, entries)
	lap.Lap("write", obs.LatStageWrite)
}

// writeBatchResponse streams the envelope, splicing each entry's cached
// body bytes in verbatim. Encoding the whole BatchResponse through
// encoding/json would re-parse every Body RawMessage to compact it — an
// O(total body bytes) pass that dominated warm-cache batch latency — and
// byte-splicing is also the stronger form of the bit-identity contract:
// the cached single-request bytes land on the wire untouched.
func writeBatchResponse(w io.Writer, entries []BatchEntry) {
	buf := bytes.NewBuffer(make([]byte, 0, 1024))
	buf.WriteString(`{"results":[`)
	for i := range entries {
		if i > 0 {
			buf.WriteByte(',')
		}
		body := entries[i].Body
		entries[i].Body = nil
		meta, _ := json.Marshal(&entries[i]) // ints and strings: cannot fail
		if len(body) == 0 {
			buf.Write(meta)
			continue
		}
		// meta is "{...}"; reopen it to append the body field verbatim.
		buf.Write(meta[:len(meta)-1])
		buf.WriteString(`,"body":`)
		buf.Write(body)
		buf.WriteByte('}')
	}
	buf.WriteString("]}\n")
	w.Write(buf.Bytes())
}

// batchEntry renders an allocResult as one batch response entry, the
// field-for-field analog of writeResult's headers.
func batchEntry(name string, r allocResult) BatchEntry {
	e := BatchEntry{Status: r.status, Artifact: name, Scenario: r.scenario, Shed: r.shed}
	if r.shed != "" {
		e.RetryAfter = admit.RetryAfterSeconds(r.retry)
	}
	if r.status == http.StatusOK {
		e.Cache = r.wireCache()
		e.Body = json.RawMessage(r.body)
	} else {
		e.Error = r.errMsg
	}
	return e
}
