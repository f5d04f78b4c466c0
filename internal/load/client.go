package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client is the one HTTP client every driver and probe fires through: a
// base URL and a transport that keeps as many idle connections as its
// caller has requests in flight, so a run measures the server and not TCP
// handshakes (the default transport keeps two per host).
type Client struct {
	base string
	http *http.Client
}

// NewClient returns a client for the server at baseURL that reuses up to
// conns connections. Close it when done.
func NewClient(baseURL string, conns int) *Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = conns
	t.MaxIdleConnsPerHost = conns
	return &Client{base: strings.TrimRight(baseURL, "/"), http: &http.Client{Transport: t}}
}

// Close drops the client's idle connections (and the goroutines behind
// them).
func (c *Client) Close() { c.http.CloseIdleConnections() }

// NewRequest renders one planned request for the server at baseURL: a GET
// /v1/alloc for a single query, a POST /v1/alloc/batch envelope otherwise.
// Artifact names travel in the batch body or, for single requests, the
// X-Flexile-Artifact header, so the same plan drives a bare server and a
// registry. A positive deadline is sent as X-Request-Deadline.
func NewRequest(ctx context.Context, baseURL string, rq Request, deadline time.Duration) (*http.Request, error) {
	return newRequest(ctx, baseURL, rq, deadline, len(rq.Queries) != 1)
}

func newRequest(ctx context.Context, baseURL string, rq Request, deadline time.Duration, batch bool) (*http.Request, error) {
	var req *http.Request
	var err error
	if batch {
		var body []byte
		body, err = json.Marshal(struct {
			Queries []Query `json:"queries"`
		}{rq.Queries})
		if err != nil {
			return nil, err
		}
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/alloc/batch", bytes.NewReader(body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	} else {
		q := rq.Queries[0]
		parts := make([]string, len(q.Failed))
		for i, e := range q.Failed {
			parts[i] = strconv.Itoa(e)
		}
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/alloc?failed="+strings.Join(parts, ","), nil)
		if err == nil && q.Artifact != "" {
			req.Header.Set("X-Flexile-Artifact", q.Artifact)
		}
	}
	if err != nil {
		return nil, err
	}
	if rq.Tenant != "" {
		req.Header.Set("X-Tenant", rq.Tenant)
	}
	if rq.ID != "" {
		req.Header.Set("X-Request-Id", rq.ID)
		req.Header.Set("traceparent", rq.TraceParent())
	}
	if deadline > 0 {
		req.Header.Set("X-Request-Deadline", deadline.String())
	}
	return req, nil
}

// Outcome is one query's raw answer: what the server said, before anyone
// decides what it means (Contract does that). On the batch route the
// fields come from the query's envelope entry instead of the response
// headers.
type Outcome struct {
	// Status is the HTTP status — for a batch entry its would-be
	// single-request status, and 0 when a 200 envelope held no readable
	// entry for the query (Body then holds the envelope).
	Status     int
	Cache      string // X-Flexile-Cache: hit, miss, shared, stale, dedup
	Shed       string // X-Flexile-Shed: quota, deadline, breaker
	Degraded   bool   // X-Flexile-Degraded present
	RetryAfter int    // Retry-After in whole seconds; 0 when absent or unparsable
	Batch      bool   // answered through a batch envelope
	// RequestID is the server-echoed X-Request-Id — the planned Request.ID
	// when one was sent, else the id the server generated — the handle for
	// the server-side trace and access-log record of this exact sample.
	RequestID string
	// TraceParent is the response's traceparent header.
	TraceParent string
	Body        []byte
}

// Result is one fired request: how long the round trip took (send to last
// body byte) and one Outcome per query, or the transport error that left
// it unanswered.
type Result struct {
	Latency  time.Duration
	Err      error
	Outcomes []Outcome
}

// Fire issues one planned request and returns its raw outcomes.
func (c *Client) Fire(ctx context.Context, rq Request, deadline time.Duration) Result {
	return c.fire(ctx, rq, deadline, len(rq.Queries) != 1)
}

func (c *Client) fire(ctx context.Context, rq Request, deadline time.Duration, batch bool) Result {
	req, err := newRequest(ctx, c.base, rq, deadline, batch)
	if err != nil {
		return Result{Err: err}
	}
	begin := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return Result{Latency: time.Since(begin), Err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	res := Result{Latency: time.Since(begin)}
	if err != nil {
		res.Err = err
		return res
	}
	whole := Outcome{
		Status:      resp.StatusCode,
		Cache:       resp.Header.Get("X-Flexile-Cache"),
		Shed:        resp.Header.Get("X-Flexile-Shed"),
		Degraded:    resp.Header.Get("X-Flexile-Degraded") != "",
		Batch:       batch,
		RequestID:   resp.Header.Get("X-Request-Id"),
		TraceParent: resp.Header.Get("traceparent"),
		Body:        body,
	}
	whole.RetryAfter, _ = strconv.Atoi(resp.Header.Get("Retry-After"))
	res.Outcomes = make([]Outcome, len(rq.Queries))
	for i := range res.Outcomes {
		res.Outcomes[i] = whole
	}
	if !batch || resp.StatusCode != http.StatusOK {
		// A single answer, or an envelope-level rejection: every query of
		// the request shares the response's fate.
		return res
	}
	var env struct {
		Results []struct {
			Status     int             `json:"status"`
			Cache      string          `json:"cache"`
			Degraded   bool            `json:"degraded"`
			Shed       string          `json:"shed"`
			RetryAfter int             `json:"retry_after"`
			Body       json.RawMessage `json:"body"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &env); err != nil || len(env.Results) != len(rq.Queries) {
		// An envelope that does not answer every query answers none of
		// them: entries match queries by position only.
		for i := range res.Outcomes {
			res.Outcomes[i].Status = 0
		}
		return res
	}
	for i, e := range env.Results {
		o := &res.Outcomes[i]
		o.Status, o.Cache, o.Shed, o.Degraded, o.RetryAfter, o.Body = e.Status, e.Cache, e.Shed, e.Degraded, e.RetryAfter, e.Body
	}
	return res
}

// FetchScenarios asks a live server for an artifact's enumerated failure
// states (GET /v1/scenarios), the input a Plan draws queries from. name ""
// targets the server's default artifact.
func FetchScenarios(ctx context.Context, baseURL, name string) ([][]int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/scenarios", nil)
	if err != nil {
		return nil, err
	}
	if name != "" {
		req.Header.Set("X-Flexile-Artifact", name)
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("load: scenarios for %q: %s: %s", name, resp.Status, bytes.TrimSpace(body))
	}
	var scens []struct {
		Failed []int `json:"failed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&scens); err != nil {
		return nil, err
	}
	if len(scens) == 0 {
		return nil, fmt.Errorf("load: artifact %q enumerates no scenarios", name)
	}
	out := make([][]int, len(scens))
	for i, sc := range scens {
		out[i] = sc.Failed
	}
	return out, nil
}
