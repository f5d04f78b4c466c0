package load_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"flexile/internal/chaos"
	"flexile/internal/load"
	"flexile/internal/obs"
	"flexile/internal/serve"
)

// TestFetch pins the single-query wire shape — the request line and headers
// Fire sends — and the raw status/disposition/body it fetches back,
// including the shed and degraded variants a Stats would have folded away.
func TestFetch(t *testing.T) {
	var got struct {
		url, artifact, tenant, deadline, id, traceparent string
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.url = r.URL.String()
		got.artifact = r.Header.Get("X-Flexile-Artifact")
		got.tenant = r.Header.Get("X-Tenant")
		got.deadline = r.Header.Get("X-Request-Deadline")
		got.id = r.Header.Get("X-Request-Id")
		got.traceparent = r.Header.Get("traceparent")
		w.Header().Set("X-Request-Id", "srv-"+got.id)
		switch r.Header.Get("X-Tenant") {
		case "over-quota":
			w.Header().Set("X-Flexile-Shed", "quota")
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusTooManyRequests)
		case "degraded":
			w.Header().Set("X-Flexile-Cache", "stale")
			w.Header().Set("X-Flexile-Degraded", "stale")
			w.Write([]byte(`{"stale":true}`))
		default:
			w.Header().Set("X-Flexile-Cache", "hit")
			w.Write([]byte(`{"scenario":3}`))
		}
	}))
	defer srv.Close()
	ctx := context.Background()
	client := load.NewClient(srv.URL+"/", 1) // a trailing slash on the target is tolerated
	defer client.Close()
	one := func(t *testing.T, rq load.Request, deadline time.Duration) load.Outcome {
		t.Helper()
		res := client.Fire(ctx, rq, deadline)
		if res.Err != nil || len(res.Outcomes) != 1 {
			t.Fatalf("Fire: err %v, %d outcomes", res.Err, len(res.Outcomes))
		}
		return res.Outcomes[0]
	}

	rq := load.Request{Tenant: "t0", ID: "load-2a-7", Queries: []load.Query{{Artifact: "ibm", Failed: []int{3, 7}}}}
	out := one(t, rq, 250*time.Millisecond)
	if got.url != "/v1/alloc?failed=3,7" {
		t.Errorf("request URL = %q, want /v1/alloc?failed=3,7", got.url)
	}
	if got.artifact != "ibm" || got.tenant != "t0" || got.deadline != "250ms" {
		t.Errorf("headers = artifact %q tenant %q deadline %q, want ibm/t0/250ms", got.artifact, got.tenant, got.deadline)
	}
	if got.id != "load-2a-7" || got.traceparent != rq.TraceParent() {
		t.Errorf("request id %q traceparent %q, want the planned ones", got.id, got.traceparent)
	}
	if out.Status != http.StatusOK || out.Cache != "hit" || out.Shed != "" || out.Degraded || out.Batch ||
		out.RequestID != "srv-load-2a-7" || string(out.Body) != `{"scenario":3}` {
		t.Errorf("outcome = %+v, want 200 hit with body and the echoed id", out)
	}

	// No artifact, no tenant, no id, no deadline: none of the headers are sent.
	one(t, load.Request{Queries: []load.Query{{}}}, 0)
	if got.url != "/v1/alloc?failed=" || got.artifact != "" || got.tenant != "" || got.deadline != "" || got.id != "" || got.traceparent != "" {
		t.Errorf("bare request leaked headers: %+v", got)
	}

	out = one(t, load.Request{Tenant: "over-quota", Queries: []load.Query{{}}}, 0)
	if out.Status != http.StatusTooManyRequests || out.Shed != "quota" || out.RetryAfter != 2 {
		t.Errorf("shed outcome = %+v, want 429 shed=quota retry-after 2", out)
	}
	out = one(t, load.Request{Tenant: "degraded", Queries: []load.Query{{}}}, 0)
	if !out.Degraded || out.Cache != "stale" {
		t.Errorf("degraded outcome = %+v, want stale+degraded", out)
	}

	// A dead server surfaces the transport error and no outcomes.
	dead := load.NewClient("http://127.0.0.1:1", 1)
	defer dead.Close()
	if res := dead.Fire(ctx, load.Request{Queries: []load.Query{{}}}, 0); res.Err == nil || len(res.Outcomes) != 0 {
		t.Errorf("Fire swallowed a connection error: %+v", res)
	}
}

// TestBatchEnvelopes: one Outcome per query out of a batch response — from
// the positional entries of a 200 envelope, or, when the envelope is
// rejected whole or does not answer every query, the same fate for all.
func TestBatchEnvelopes(t *testing.T) {
	var sent string
	reply := ""
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		sent = r.Method + " " + r.URL.String() + " " + string(body)
		if reply == "" {
			http.Error(w, "batch too large", http.StatusRequestEntityTooLarge)
			return
		}
		w.Header().Set("X-Request-Id", "env-1")
		w.Write([]byte(reply))
	}))
	defer srv.Close()
	client := load.NewClient(srv.URL, 1)
	defer client.Close()
	rq := load.Request{Queries: []load.Query{{Artifact: "a", Failed: []int{1}}, {Failed: []int{}}}}

	reply = `{"results":[{"status":200,"cache":"dedup","body":{"scenario":1}},{"status":429,"shed":"quota","retry_after":3,"error":"slow down"}]}`
	res := client.Fire(context.Background(), rq, 0)
	if sent != `POST /v1/alloc/batch {"queries":[{"artifact":"a","failed":[1]},{"failed":[]}]}` {
		t.Errorf("wire request = %s", sent)
	}
	if res.Err != nil || len(res.Outcomes) != 2 {
		t.Fatalf("Fire: %+v", res)
	}
	if o := res.Outcomes[0]; o.Status != 200 || o.Cache != "dedup" || !o.Batch || o.RequestID != "env-1" || string(o.Body) != `{"scenario":1}` {
		t.Errorf("entry 0 = %+v", o)
	}
	if o := res.Outcomes[1]; o.Status != 429 || o.Shed != "quota" || o.RetryAfter != 3 || !o.Batch {
		t.Errorf("entry 1 = %+v", o)
	}

	for name, envelope := range map[string]string{"short": `{"results":[{"status":200}]}`, "garbage": `<html>`} {
		reply = envelope
		res = client.Fire(context.Background(), rq, 0)
		for i, o := range res.Outcomes {
			if class, _ := load.Contract(nil, rq, i, o); res.Err != nil || o.Status != 0 || class != load.Violation {
				t.Errorf("%s envelope, query %d: %+v (err %v), want a status-0 violation", name, i, o, res.Err)
			}
		}
	}

	reply = "" // envelope-level rejection: both queries share the 413
	res = client.Fire(context.Background(), rq, 0)
	for i, o := range res.Outcomes {
		if o.Status != http.StatusRequestEntityTooLarge || !o.Batch {
			t.Errorf("rejected envelope, query %d: %+v", i, o)
		}
	}
}

// TestSingleAndBatchRoutesAgree puts the same query through GET /v1/alloc
// and through a one-entry POST /v1/alloc/batch on a live server: both
// routes must yield the same Contract class and the same body — once for
// an admitted answer, once for a quota shed, where the single route's
// refusal travels in headers and the batch route's in the entry.
func TestSingleAndBatchRoutesAgree(t *testing.T) {
	h, err := chaos.New(t.TempDir(), serve.Config{CacheSize: 8, Obs: obs.New(), TenantRate: 0.001, TenantBurst: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	client := load.NewClient(h.TS.URL, 1)
	defer client.Close()
	ctx := context.Background()
	for _, want := range []load.Class{load.Exact, load.Shed} {
		rq := load.Request{Tenant: want.String(), Queries: []load.Query{h.Query("", 1)}}
		if want == load.Shed {
			// Drain the tenant's two-token bucket first.
			client.Fire(ctx, rq, 0)
			client.Fire(ctx, rq, 0)
		}
		get, post := client.Fire(ctx, rq, 0), client.FireBatch(ctx, rq, 0)
		if get.Err != nil || post.Err != nil {
			t.Fatalf("transport: %v / %v", get.Err, post.Err)
		}
		g, p := get.Outcomes[0], post.Outcomes[0]
		if g.Batch || !p.Batch {
			t.Fatalf("route flags: GET batch=%v, POST batch=%v", g.Batch, p.Batch)
		}
		gc, gerr := load.Contract(h.Oracle, rq, 0, g)
		pc, perr := load.Contract(h.Oracle, rq, 0, p)
		if gc != want || pc != want {
			t.Errorf("want %v on both routes, got GET %v (%v), batch %v (%v)", want, gc, gerr, pc, perr)
		}
		if want == load.Exact && string(g.Body) != string(p.Body) {
			t.Errorf("routes disagree on the body:\n GET  %s\n POST %s", g.Body, p.Body)
		}
		if want == load.Shed && (g.Shed != p.Shed || g.Status != p.Status) {
			t.Errorf("routes disagree on the refusal: GET %d %q, batch %d %q", g.Status, g.Shed, p.Status, p.Shed)
		}
	}
}
