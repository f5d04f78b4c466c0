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

// DefaultMaxBatch is the per-request query limit when Config.MaxBatch is
// zero. Large enough to amortize HTTP+admission overhead across a burst of
// failure states, small enough that one envelope stays well under
// maxBatchBody even for maximum-size failure sets.
const DefaultMaxBatch = 64

// maxBatchBody bounds how much of a batch request body the server reads.
const maxBatchBody = 8 << 20

// BatchQuery is one allocation query inside a batch request. Artifact
// names the artifact ("" means the one the request itself addresses);
// Failed is the failure state in the same form as the single-query POST
// body.
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
// written, and Cache/Degraded mirror the X-Flexile-Cache and
// X-Flexile-Degraded headers (plus "dedup" for entries answered by copying
// an identical earlier entry's result). Non-200 entries carry the
// single-request error text in Error, and sheds mirror X-Flexile-Shed and
// Retry-After in Shed/RetryAfter.
type BatchEntry struct {
	Status     int             `json:"status"`
	Artifact   string          `json:"artifact,omitempty"`
	Scenario   int             `json:"scenario"`
	Cache      string          `json:"cache,omitempty"`
	Degraded   bool            `json:"degraded,omitempty"`
	Shed       string          `json:"shed,omitempty"`
	RetryAfter int             `json:"retry_after,omitempty"`
	Error      string          `json:"error,omitempty"`
	Body       json.RawMessage `json:"body,omitempty"`
}

// BatchResponse is the POST /v1/alloc/batch response envelope.
type BatchResponse struct {
	Results []BatchEntry `json:"results"`
}

// ParseBatchRequest decodes and validates a batch envelope. The contract
// matches ParseRequest: arbitrary bytes yield either a canonical request
// (every query's Failed sorted, deduplicated, in-range) or a wrapped
// ErrBadRequest — never a panic. Envelope-level strictness is deliberate:
// one malformed query rejects the whole batch, so a 200 envelope always
// answers every query the client sent.
func ParseBatchRequest(data []byte, maxBatch int) (*BatchRequest, error) {
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	var req BatchRequest
	if err := decodeStrict(data, maxBatchBody, "batch body", "batch", &req); err != nil {
		return nil, err
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
	req, err := ParseBatchRequest(body, s.cfg.MaxBatch)
	if err != nil {
		return nil, 0, err
	}
	deadline, err := admit.ParseDeadline(r.Header.Get("X-Request-Deadline"), s.cfg.DefaultDeadline)
	return req, deadline, err
}

// groupKey identifies one unique (artifact, failure state) across a batch.
type groupKey struct {
	eng *engine
	key string // failedKey of the query
}

// batchGroup is the queries of a batch sharing one groupKey: the first
// computes, later duplicates copy its result.
type batchGroup struct {
	groupKey
	req     *AllocRequest
	members []int // request positions answered by this group
	res     allocResult
}

// handleBatch serves POST /v1/alloc/batch (DESIGN.md §14). One HTTP
// request carries many allocation queries; a query that names no artifact
// rides the request's own addressing (path segment, header, default rule).
// Each query keeps per-entry admission semantics (quota on the resolved
// engine's buckets, deadline, breaker), duplicates of the same (artifact,
// failure-state) pair are answered once, and unique misses fan out
// concurrently through each engine's existing gate/flight pipeline. Entry
// bodies are the exact bytes the single-query path would have written.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	top := obs.ServeMetrics{BatchRequests: 1}
	defer func() {
		s.col.AddServe(top)
		s.col.ObserveLatency(obs.LatServeRequest, time.Since(start))
	}()
	// The top-level lapper tiles the serial phases of the batch (parse →
	// admit → flight barrier → write); each stage-2 group records its own
	// nested spans from its goroutine.
	tr := obs.ReqTraceFrom(r.Context())
	lap := &lapper{tr: tr, col: s.col, last: start}

	req, deadline, err := s.readBatch(r)
	if err != nil {
		top.BadRequests = 1
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	lap.Lap("parse", obs.LatStageParse)
	top.BatchEntries = int64(len(req.Queries))
	tenant := r.Header.Get("X-Tenant")
	def := addressed(r)

	waitCtx, cancel := waitContext(r, start, deadline)
	defer cancel()

	// Stage 1 (serial, cheap): resolve each query's artifact, charge its
	// tenant quota on the owning engine, and group duplicates. Entries
	// rejected here never reach a worker. acct accumulates each engine's
	// counters so one batch costs each collector a single add.
	entries := make([]BatchEntry, len(req.Queries))
	groups := make(map[groupKey]*batchGroup)
	acct := make(map[*engine]*obs.ServeMetrics)
	var order []*batchGroup
	for i, qy := range req.Queries {
		name := qy.Artifact
		if name == "" {
			name = def
		}
		eng, rerr := s.resolve(name)
		if rerr != nil {
			top.BadRequests++
			entries[i] = BatchEntry{Status: http.StatusNotFound, Artifact: qy.Artifact, Scenario: -1, Error: rerr.Error()}
			continue
		}
		if acct[eng] == nil {
			acct[eng] = new(obs.ServeMetrics)
		}
		if refusal, ok := eng.admit(tenant); !ok {
			acct[eng].Add(refusal.metrics())
			entries[i] = batchEntry(eng.name, refusal)
			continue
		}
		gk := groupKey{eng, failedKey(qy.Failed)}
		g := groups[gk]
		if g == nil {
			g = &batchGroup{groupKey: gk, req: &AllocRequest{Failed: qy.Failed}}
			groups[gk] = g
			order = append(order, g)
		} else {
			top.BatchDeduped++
		}
		g.members = append(g.members, i)
	}
	lap.Lap("admit", obs.LatStageAdmit)

	// Stage 2 (concurrent): one allocate per unique group; the per-engine
	// gate still bounds actual recomputation concurrency, so a wide batch
	// cannot stampede the solver any harder than wide single requests.
	var wg sync.WaitGroup
	for _, g := range order {
		wg.Add(1)
		go func(g *batchGroup) {
			defer wg.Done()
			glap := &lapper{tr: tr, col: g.eng.col, last: time.Now(), nested: true, tag: g.key}
			g.res = g.eng.allocate(waitCtx, g.req, deadline)
			glap.alloc(g.res)
		}(g)
	}
	wg.Wait()
	lap.Lap("flight", obs.LatStageFlight)

	// Every member entry is a request; the group's disposition is counted
	// once, so per-artifact and fleet counters see batch entries exactly
	// like single requests plus BatchDeduped copies.
	for _, g := range order {
		m := g.res.metrics()
		m.Requests = int64(len(g.members))
		acct[g.eng].Add(m)
		for pos, i := range g.members {
			e := batchEntry(g.eng.name, g.res)
			if pos > 0 && e.Status == http.StatusOK && !e.Degraded {
				e.Cache = "dedup"
			}
			entries[i] = e
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
		e.Cache = r.cache
		e.Degraded = r.degraded
		e.Body = json.RawMessage(r.body)
	} else {
		e.Error = r.errMsg
	}
	return e
}
