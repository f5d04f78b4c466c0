package load_test

import (
	"strings"
	"testing"

	"flexile/internal/load"
)

// TestContract names every outcome the serving contract distinguishes —
// one case per rule the four former classifiers (two chaos harnesses, the
// overload hypothesis, the load generator) each wrote down separately.
func TestContract(t *testing.T) {
	oracle := func(q load.Query) []byte {
		if q.Artifact == "ibm" && len(q.Failed) == 1 && q.Failed[0] == 3 {
			return []byte(`{"scenario":3}`)
		}
		return nil
	}
	rq := load.Request{ID: "load-1-9", Queries: []load.Query{{Artifact: "ibm", Failed: []int{3}}, {Artifact: "ibm", Failed: []int{4}}}}
	for _, tc := range []struct {
		name   string
		i      int
		oracle load.Oracle
		out    load.Outcome
		want   load.Class
		msg    string // substring of the violation
	}{
		{name: "oracle-exact 200", oracle: oracle, out: load.Outcome{Status: 200, Cache: "hit", Body: []byte(`{"scenario":3}`)}, want: load.Exact},
		{name: "differing unmarked 200", oracle: oracle, out: load.Outcome{Status: 200, Body: []byte(`{"scenario":4}`)}, want: load.Violation, msg: "differs from oracle"},
		{name: "200 with no oracle answer", i: 1, oracle: oracle, out: load.Outcome{Status: 200, Body: []byte(`anything`)}, want: load.Exact},
		{name: "200 with no oracle at all", out: load.Outcome{Status: 200, Body: []byte(`anything`)}, want: load.Exact},
		{name: "shed with reason", out: load.Outcome{Status: 503, Shed: "deadline", RetryAfter: 1}, want: load.Shed},
		{name: "quota shed", out: load.Outcome{Status: 429, Shed: "quota", RetryAfter: 1000}, want: load.Shed},
		{name: "shed without reason", out: load.Outcome{Status: 503, RetryAfter: 1, Body: []byte("busy")}, want: load.Violation, msg: "503 without a shed reason: busy"},
		{name: "single-route shed with Retry-After 0", out: load.Outcome{Status: 503, Shed: "deadline"}, want: load.Violation, msg: "Retry-After"},
		{name: "batch entry shed without header", out: load.Outcome{Status: 429, Shed: "quota", Batch: true}, want: load.Shed},
		{name: "batch entry shed without reason", out: load.Outcome{Status: 429, Batch: true}, want: load.Violation, msg: "429 without a shed reason"},
		{name: "404", out: load.Outcome{Status: 404, Body: []byte("no such scenario")}, want: load.Violation, msg: "status 404: no such scenario"},
		{name: "500", out: load.Outcome{Status: 500}, want: load.Violation, msg: "status 500"},
		{name: "short envelope", out: load.Outcome{Status: 0, Batch: true, Body: []byte(`{"results":[]}`)}, want: load.Violation, msg: "envelope"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := load.Contract(tc.oracle, rq, tc.i, tc.out)
			if got != tc.want {
				t.Fatalf("class = %v (%v), want %v", got, err, tc.want)
			}
			if (err != nil) != (tc.want == load.Violation) {
				t.Fatalf("error %v with class %v: only violations carry one", err, got)
			}
			if err != nil && (!strings.Contains(err.Error(), tc.msg) || !strings.Contains(err.Error(), "load-1-9")) {
				t.Errorf("violation %q: want it to say %q and name request load-1-9", err, tc.msg)
			}
		})
	}

	// With no planned id the violation names the id the server echoed.
	_, err := load.Contract(nil, load.Request{Queries: rq.Queries}, 0, load.Outcome{Status: 500, RequestID: "srv-77"})
	if err == nil || !strings.Contains(err.Error(), "srv-77") {
		t.Errorf("violation %v does not name the echoed request id", err)
	}
}
