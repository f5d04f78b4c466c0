package serve

import (
	"errors"
	"sort"
	"testing"
)

// FuzzDecodeArtifact feeds arbitrary bytes to the artifact decoder. The
// contract under test: any input either decodes into a fully validated,
// re-encodable artifact or returns a wrapped ErrArtifact — never a panic,
// never an out-of-range index surviving into the instance.
func FuzzDecodeArtifact(f *testing.F) {
	// Genuine artifacts keep the fuzzer in deep payload territory; the γ
	// design's also carries the ScenLossOpt vector.
	for _, solved := range []func() (triangleDesign, error){solvedTriangle, solvedTriangleGamma} {
		s, err := solved()
		if err != nil {
			continue
		}
		f.Add(s.blob)
		trunc := append([]byte(nil), s.blob[:len(s.blob)/2]...)
		f.Add(trunc)
		flip := append([]byte(nil), s.blob...)
		flip[headerSize+3] ^= 0xff
		f.Add(flip)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrArtifact) {
				t.Fatalf("decode error does not wrap ErrArtifact: %v", err)
			}
			if a != nil {
				t.Fatal("Decode returned both an artifact and an error")
			}
			return
		}
		// Accepted input: every index the validator promised must hold, and
		// instantiation must succeed (it only re-checks what Decode already
		// enforced).
		for _, e := range a.Edges {
			if e.A < 0 || e.A >= a.NumNodes || e.B < 0 || e.B >= a.NumNodes || e.A == e.B {
				t.Fatalf("accepted edge out of range: %+v with %d nodes", e, a.NumNodes)
			}
		}
		for _, p := range a.Pairs {
			if p[0] < 0 || p[1] >= a.NumNodes || p[0] >= p[1] {
				t.Fatalf("accepted pair out of range: %v", p)
			}
		}
		for _, s := range a.Scenarios {
			if !(s.Prob >= 0 && s.Prob <= 1) {
				t.Fatalf("accepted probability %v", s.Prob)
			}
			for _, e := range s.Failed {
				if e < 0 || e >= len(a.Edges) {
					t.Fatalf("accepted failed edge %d of %d", e, len(a.Edges))
				}
			}
		}
		if _, _, _, err := a.Instantiate(); err != nil {
			t.Fatalf("accepted artifact failed to instantiate: %v", err)
		}
		// A decoded artifact must survive an encode→decode round trip.
		if _, err := Decode(a.Encode()); err != nil {
			t.Fatalf("re-encode of accepted artifact rejected: %v", err)
		}
	})
}

// FuzzParseBatchRequest feeds arbitrary bytes to the batch envelope
// decoder: any input either yields a batch whose every query is canonical
// (sorted, deduplicated, in-range, within the batch limit) or a wrapped
// ErrBadRequest — never a panic.
func FuzzParseBatchRequest(f *testing.F) {
	f.Add([]byte(`{"queries":[{"failed":[0,2]},{"artifact":"ibm","failed":[]}]}`))
	f.Add([]byte(`{"queries":[{"failed":[2,2,0]}]}`))
	f.Add([]byte(`{"queries":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseBatchRequest(data, 0)
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("parse error does not wrap ErrBadRequest: %v", err)
			}
			return
		}
		if len(req.Queries) == 0 || len(req.Queries) > DefaultMaxBatch {
			t.Fatalf("accepted %d queries outside (0, %d]", len(req.Queries), DefaultMaxBatch)
		}
		for qi, q := range req.Queries {
			if !sort.IntsAreSorted(q.Failed) {
				t.Fatalf("query %d not sorted: %v", qi, q.Failed)
			}
			for i, e := range q.Failed {
				if e < 0 || e >= maxEdges {
					t.Fatalf("query %d accepted edge id %d out of range", qi, e)
				}
				if i > 0 && e == q.Failed[i-1] {
					t.Fatalf("query %d not deduplicated: %v", qi, q.Failed)
				}
			}
			// The canonical form must map to the same scenario key on re-parse.
			if again, err := ParseQuery(failedKey(q.Failed)); err != nil || failedKey(again.Failed) != failedKey(q.Failed) {
				t.Fatalf("query %d canonical form unstable: %v / %v", qi, again, err)
			}
		}
	})
}

// FuzzResolveArtifactName throws arbitrary strings at registry name
// resolution over a live two-artifact registry. The contract: never a
// panic, loaded names resolve to their server, and everything else —
// hostile charsets included — is a clean error.
func FuzzResolveArtifactName(f *testing.F) {
	dir := writeRegistryDir(f, "alpha", "beta")
	reg, err := NewRegistry(dir, Config{CacheSize: 4, Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(reg.Close)
	f.Add("alpha")
	f.Add("")
	f.Add("../../etc/passwd")
	f.Add(".hidden")
	f.Add("alpha\x00")
	f.Fuzz(func(t *testing.T, name string) {
		eng, err := reg.resolve(name)
		if err != nil {
			if eng != nil {
				t.Fatal("resolve returned both an engine and an error")
			}
			return
		}
		if eng == nil {
			t.Fatalf("resolve(%q) returned neither engine nor error", name)
		}
		if !ValidArtifactName(eng.name) {
			t.Fatalf("resolved to invalid name %q", eng.name)
		}
		if name != "" && eng.name != name {
			t.Fatalf("resolve(%q) resolved to different name %q", name, eng.name)
		}
	})
}
