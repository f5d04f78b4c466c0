package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"flexile/internal/obs"
)

func TestParseBatchRequest(t *testing.T) {
	good, err := ParseBatchRequest([]byte(`{"queries":[{"failed":[2,0,2]},{"artifact":"ibm","failed":[]}]}`), 0)
	if err != nil {
		t.Fatalf("ParseBatchRequest: %v", err)
	}
	if !reflect.DeepEqual(good.Queries[0].Failed, []int{0, 2}) {
		t.Errorf("failed set not canonicalized: %v", good.Queries[0].Failed)
	}
	if good.Queries[1].Artifact != "ibm" || len(good.Queries[1].Failed) != 0 {
		t.Errorf("query 1 mangled: %+v", good.Queries[1])
	}
	// Each query's failure state is canonicalized on its own.
	for in, want := range map[string][]int{
		`{"failed":[]}`:      {},
		`{"failed":null}`:    {},
		`{"failed":[2,0,1]}`: {0, 1, 2},
		`{"failed":[1,1,1]}`: {1},
	} {
		req, err := ParseBatchRequest([]byte(`{"queries":[`+in+`]}`), 0)
		if err != nil {
			t.Errorf("query %s: %v", in, err)
			continue
		}
		if got := req.Queries[0].Failed; !slices.Equal(got, want) {
			t.Errorf("query %s = %v, want %v", in, got, want)
		}
	}

	bad := []string{
		``,
		`{`,
		`"x"`,
		`null`,
		`{}`,
		`{"queries":[]}`,
		`[]`,
		`[0,1,2]`,
		`{"queries":[[0,1,2]]}`,
		`{"queries":[{"failed":[0]}]}trailing`,
		`{"queries":[{"failed":[0]}],"extra":1}`,
		`{"queries":[{"failed":[-1]}]}`,
		`{"queries":[{"failed":["a"]}]}`,
		`{"queries":[{"failed":[99999999999999999999]}]}`,
		`{"queries":[{"failed":[5000000]}]}`,
		`{"queries":[{"failed":[0],"unknown":true}]}`,
		fmt.Sprintf(`{"queries":[%s{"failed":[0]}]}`, strings.Repeat(`{"failed":[0]},`, DefaultMaxBatch)),
	}
	for _, in := range bad {
		if _, err := ParseBatchRequest([]byte(in), 0); !errors.Is(err, ErrBadRequest) {
			t.Errorf("ParseBatchRequest(%.40q) = %v, want ErrBadRequest", in, err)
		}
	}

	// maxBatch == 2 admits exactly 2 queries and rejects 3.
	if _, err := ParseBatchRequest([]byte(`{"queries":[{"failed":[]},{"failed":[]}]}`), 2); err != nil {
		t.Errorf("2 queries at limit 2: %v", err)
	}
	if _, err := ParseBatchRequest([]byte(`{"queries":[{"failed":[]},{"failed":[]},{"failed":[]}]}`), 2); !errors.Is(err, ErrBadRequest) {
		t.Errorf("3 queries at limit 2: %v, want ErrBadRequest", err)
	}
}

// TestServerBatch exercises POST /v1/alloc/batch on a standalone server:
// entry bodies bit-identical to GET, a repeated state answered like a
// repeated GET, per-entry 404s for
// unknown artifacts and unenumerated scenarios, and the batch counters.
func TestServerBatch(t *testing.T) {
	path, _, _, _ := writeArtifact(t)
	col := obs.New()
	s, err := New(path, Config{CacheSize: 64, Workers: 2, Obs: col})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	want0 := getAlloc(t, ts.URL+"/v1/alloc", nil, nil)
	want02 := getAlloc(t, ts.URL+"/v1/alloc", []int{0, 2}, nil)

	results := postBatch(t, ts.URL+"/v1/alloc/batch", []BatchQuery{
		{Failed: []int{}},
		{Failed: []int{0, 2}},
		{Failed: []int{2, 0}},           // the previous entry's state again
		{Artifact: "nope", Failed: nil}, // unknown artifact on a single-artifact server
		{Failed: []int{0, 1, 2}},        // all three links down, enumerated by the triangle fixture
	})
	if !bytes.Equal([]byte(results[0].Body), want0) {
		t.Error("entry 0 body diverged from GET")
	}
	if results[0].Cache != "hit" {
		t.Errorf("entry 0 cache = %q, want hit (warmed by the GET oracle)", results[0].Cache)
	}
	if !bytes.Equal([]byte(results[1].Body), want02) {
		t.Error("entry 1 body diverged from GET")
	}
	if results[1].Cache != "hit" {
		t.Errorf("entry 1 cache = %q, want hit (warmed by the GET oracle)", results[1].Cache)
	}
	if results[2].Cache != "hit" || !bytes.Equal([]byte(results[2].Body), want02) {
		t.Errorf("entry 2 = cache %q, want hit with identical body", results[2].Cache)
	}
	if results[3].Status != http.StatusNotFound || results[3].Error == "" || results[3].Scenario != -1 {
		t.Errorf("unknown-artifact entry = %+v, want 404 with error", results[3])
	}
	if results[4].Status != http.StatusOK {
		t.Errorf("entry 4 status = %d (%s)", results[4].Status, results[4].Error)
	}

	sm := col.Snapshot().Serve
	if sm.BatchRequests != 1 {
		t.Errorf("BatchRequests = %d, want 1", sm.BatchRequests)
	}
	if sm.BatchEntries != 5 {
		t.Errorf("BatchEntries = %d, want 5", sm.BatchEntries)
	}
	// 4 of the 5 entries resolved to the server (the unknown-artifact one
	// never reached it), so per-entry accounting matches single requests:
	// 2 from the GET oracle + 4 batch entries.
	if sm.Requests != 6 {
		t.Errorf("Requests = %d, want 6 (2 GET + 4 resolved batch entries)", sm.Requests)
	}

	// Envelope rejections: malformed body and oversized batch are 400s
	// with the stable error shape.
	for _, body := range []string{`{"queries":[`, `{"queries":[{"failed":[-1]}]}`} {
		resp, err := http.Post(ts.URL+"/v1/alloc/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
			t.Errorf("envelope rejection body not stable error JSON: %v %+v", err, e)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("malformed envelope status = %d, want 400", resp.StatusCode)
		}
	}
}

// TestBatchCacheMirrorsHeader: a batch entry's cache field reads what the
// X-Flexile-Cache header would for the same outcome. With the cache off, a
// batch asking for one state twice recomputes it for each entry — alone or
// by joining the other's flight — and both entries are misses.
func TestBatchCacheMirrorsHeader(t *testing.T) {
	path, _, _, _ := writeArtifact(t)
	s, err := New(path, Config{CacheSize: 0, Workers: 2, Obs: obs.New(),
		ComputeHook: func(int) error { time.Sleep(20 * time.Millisecond); return nil }}) // lets the twin join
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	results := postBatch(t, ts.URL+"/v1/alloc/batch", []BatchQuery{{Failed: []int{0}}, {Failed: []int{0}}})
	for i, e := range results {
		if e.Status != http.StatusOK || e.Cache != "miss" {
			t.Errorf("entry %d = status %d cache %q, want 200 miss", i, e.Status, e.Cache)
		}
	}
}

// TestBatchQuotaPerEntry proves quota semantics apply per entry: a batch
// wider than the tenant's burst gets exactly burst admitted entries and
// the rest shed as quota 429s inside a 200 envelope.
func TestBatchQuotaPerEntry(t *testing.T) {
	path, _, _, _ := writeArtifact(t)
	s, err := New(path, Config{CacheSize: 64, Workers: 2, Obs: obs.New(), TenantRate: 0.001, TenantBurst: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	queries := make([]BatchQuery, 8)
	for i := range queries {
		queries[i] = BatchQuery{Failed: []int{i % 3}}
	}
	body, _ := json.Marshal(BatchRequest{Queries: queries})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/alloc/batch", bytes.NewReader(body))
	req.Header.Set("X-Tenant", "acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	var ok, quota int
	for _, e := range env.Results {
		switch {
		case e.Status == http.StatusOK:
			ok++
		case e.Status == http.StatusTooManyRequests && e.Shed == "quota" && e.RetryAfter >= 1:
			quota++
		default:
			t.Errorf("unexpected entry: %+v", e)
		}
	}
	if ok != 3 || quota != 5 {
		t.Errorf("ok=%d quota=%d, want 3 admitted (burst) and 5 shed", ok, quota)
	}
}

// TestBatchConcurrentRaceClean hammers single and batch paths together;
// under -race this is the race-cleanliness half of the e2e contract.
func TestBatchConcurrentRaceClean(t *testing.T) {
	t.Parallel()
	dir := writeRegistryDir(t, "alpha", "beta")
	reg, err := NewRegistry(dir, Config{CacheSize: 16, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ts := httptest.NewServer(reg)
	defer ts.Close()

	alpha := map[string]string{"X-Flexile-Artifact": "alpha"}
	scens := getScenarios(t, ts.URL+"/v1/scenarios", alpha)
	want := make([][]byte, len(scens))
	for q, failed := range scens {
		want[q] = getAlloc(t, ts.URL+"/v1/alloc", failed, alpha)
	}

	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				q := (c + i) % len(scens)
				if c%2 == 0 {
					got := getAlloc(t, ts.URL+"/v1/alloc", scens[q], alpha)
					if !bytes.Equal(got, want[q]) {
						t.Errorf("single response diverged for scenario %d", q)
						return
					}
					continue
				}
				results := postBatch(t, ts.URL+"/v1/alloc/batch", []BatchQuery{
					{Artifact: "alpha", Failed: scens[q]},
					{Artifact: "beta", Failed: scens[q]},
					{Artifact: "alpha", Failed: scens[q]},
				})
				for _, e := range results {
					if e.Status != http.StatusOK {
						t.Errorf("batch entry status %d (%s)", e.Status, e.Error)
						return
					}
				}
				if !bytes.Equal([]byte(results[0].Body), want[q]) {
					t.Errorf("batch response diverged for scenario %d", q)
					return
				}
				if !bytes.Equal([]byte(results[0].Body), []byte(results[2].Body)) {
					t.Error("repeated entry diverged from its twin")
					return
				}
			}
		}(c)
	}
	wg.Wait()
}
