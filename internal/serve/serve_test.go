package serve

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"flexile/internal/failure"
	flexscheme "flexile/internal/scheme/flexile"
	"flexile/internal/te"
	"flexile/internal/topo"
	"flexile/internal/tunnels"
)

// triangleInstance is the repo's canonical tiny fixture: the paper's Fig. 1
// triangle with one class, two flows and all 8 failure scenarios.
func triangleInstance() *te.Instance {
	tp := topo.Triangle()
	inst := te.NewInstance(tp, []te.Class{
		{Name: "single", Beta: 0.99, Weight: 1, Tunnels: tunnels.SingleClass(3)},
	})
	inst.Demand[0][0] = 1
	inst.Demand[0][1] = 1
	inst.LinkProbs = []float64{0.01, 0.01, 0.01}
	inst.Scenarios = failure.Enumerate(inst.LinkProbs, 0)
	return inst
}

// triangleDesign is a solved triangle: the instance, its design under opt
// and the encoded artifact.
type triangleDesign struct {
	inst *te.Instance
	off  *flexscheme.OfflineResult
	opt  flexscheme.Options
	blob []byte
}

func solveTriangle(opt flexscheme.Options) (triangleDesign, error) {
	out := triangleDesign{inst: triangleInstance(), opt: opt}
	off, err := flexscheme.Offline(out.inst, out.opt)
	if err != nil {
		return out, err
	}
	out.off = off
	art, err := Build(out.inst, off, out.opt)
	if err != nil {
		return out, err
	}
	out.blob = art.Encode()
	return out, nil
}

// solvedTriangle runs the offline phase once per test binary with default
// options (γ off, so the artifact carries no ScenLossOpt vector).
var solvedTriangle = sync.OnceValues(func() (triangleDesign, error) {
	return solveTriangle(flexscheme.Options{Workers: 2})
})

// solvedTriangleGamma is the γ-variant design of the same triangle, whose
// artifact carries the ScenLossOpt vector the online γ floors read.
var solvedTriangleGamma = sync.OnceValues(func() (triangleDesign, error) {
	return solveTriangle(flexscheme.Options{Workers: 2, Gamma: 0.3})
})

// writeArtifact materializes the solved triangle's artifact in a temp file
// and returns its path plus the pieces a test needs for comparison.
func writeArtifact(t testing.TB) (path string, inst *te.Instance, off *flexscheme.OfflineResult, opt flexscheme.Options) {
	t.Helper()
	s, err := solvedTriangle()
	if err != nil {
		t.Fatalf("offline solve: %v", err)
	}
	path = filepath.Join(t.TempDir(), "triangle.flxa")
	if err := os.WriteFile(path, s.blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, s.inst, s.off, s.opt
}

// soleEngine returns the engine behind a one-artifact server, for tests
// that watch its gate, loaded state or flight table directly.
func soleEngine(t testing.TB, s *Server) *engine {
	t.Helper()
	eng, err := s.resolve("")
	if err != nil {
		t.Fatalf("soleEngine: %v", err)
	}
	return eng
}

// TestArtifactRoundTrip: a decoded artifact instantiates the instance, the
// design and the options it was built from, and serves bit-identical
// allocations. A default design computes no ScenLossOpt vector and its
// artifact carries none (a zero Gamma normalizes to -1, disabled); a γ
// design's artifact carries one entry per scenario.
func TestArtifactRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name     string
		solved   func() (triangleDesign, error)
		scenLoss int
		gamma    float64
	}{
		{"gamma-off", solvedTriangle, 0, -1},
		{"gamma-on", solvedTriangleGamma, 8, 0.3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := tc.solved()
			if err != nil {
				t.Fatalf("offline solve: %v", err)
			}
			art, err := Decode(s.blob)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			inst2, off2, opt2, err := art.Instantiate()
			if err != nil {
				t.Fatalf("Instantiate: %v", err)
			}

			if inst2.Topo.Name != s.inst.Topo.Name || inst2.Topo.G.NumNodes() != s.inst.Topo.G.NumNodes() {
				t.Fatalf("topology mismatch: %s/%d", inst2.Topo.Name, inst2.Topo.G.NumNodes())
			}
			if !reflect.DeepEqual(inst2.Pairs, s.inst.Pairs) || !reflect.DeepEqual(inst2.Demand, s.inst.Demand) {
				t.Fatal("pairs or demands did not round-trip")
			}
			if !reflect.DeepEqual(inst2.Tunnels, s.inst.Tunnels) {
				t.Fatal("tunnel tables did not round-trip")
			}
			if !reflect.DeepEqual(inst2.Scenarios, s.inst.Scenarios) {
				t.Fatal("scenarios did not round-trip")
			}
			if !off2.Critical.Equal(s.off.Critical) {
				t.Fatal("critical set did not round-trip")
			}
			if !reflect.DeepEqual(off2.ScenLossOpt, s.off.ScenLossOpt) {
				t.Fatalf("ScenLossOpt did not round-trip: %v vs %v", off2.ScenLossOpt, s.off.ScenLossOpt)
			}
			if !reflect.DeepEqual(off2.SubLosses, s.off.SubLosses) {
				t.Fatal("SubLosses did not round-trip")
			}
			if len(off2.ScenLossOpt) != tc.scenLoss || opt2.Gamma != tc.gamma {
				t.Fatalf("%d ScenLossOpt entries and Gamma %v, want %d and %v",
					len(off2.ScenLossOpt), opt2.Gamma, tc.scenLoss, tc.gamma)
			}

			// Allocations from the reconstructed pieces must be bit-identical
			// to the originals for every scenario — the serving determinism
			// contract.
			for q := range s.inst.Scenarios {
				want, err := flexscheme.Online(s.inst, s.off, q, s.opt)
				if err != nil {
					t.Fatalf("Online(original, %d): %v", q, err)
				}
				got, err := flexscheme.Online(inst2, off2, q, opt2)
				if err != nil {
					t.Fatalf("Online(decoded, %d): %v", q, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("scenario %d: decoded allocation differs from original", q)
				}
			}
		})
	}
}

// TestArtifactEncodeDeterministic: encoding is a function of the design,
// and decode→encode is the identity, both without and with the γ design's
// ScenLossOpt vector.
func TestArtifactEncodeDeterministic(t *testing.T) {
	for name, solved := range map[string]func() (triangleDesign, error){
		"gamma-off": solvedTriangle,
		"gamma-on":  solvedTriangleGamma,
	} {
		t.Run(name, func(t *testing.T) {
			s, err := solved()
			if err != nil {
				t.Fatal(err)
			}
			art, err := Build(s.inst, s.off, s.opt)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(art.Encode(), s.blob) {
				t.Fatal("two Encode calls of the same design differ")
			}
			art2, err := Decode(s.blob)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(art2.Encode(), s.blob) {
				t.Fatal("decode→encode is not the identity")
			}
		})
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	s, err := solvedTriangle()
	if err != nil {
		t.Fatal(err)
	}
	blob := s.blob
	cases := map[string]func() []byte{
		"empty":     func() []byte { return nil },
		"short":     func() []byte { return blob[:headerSize-1] },
		"magic":     func() []byte { b := append([]byte(nil), blob...); b[0] = 'X'; return b },
		"version":   func() []byte { b := append([]byte(nil), blob...); b[4] = 99; return b },
		"truncated": func() []byte { return blob[:len(blob)-1] },
		"extended":  func() []byte { return append(append([]byte(nil), blob...), 0) },
		"bitflip": func() []byte {
			b := append([]byte(nil), blob...)
			b[headerSize+8] ^= 0x40
			return b
		},
		"checksum": func() []byte {
			b := append([]byte(nil), blob...)
			b[16] ^= 1
			return b
		},
		"hugelen": func() []byte {
			b := append([]byte(nil), blob...)
			for i := 8; i < 16; i++ {
				b[i] = 0xff
			}
			return b
		},
	}
	for name, mk := range cases {
		if _, err := Decode(mk()); !errors.Is(err, ErrArtifact) {
			t.Errorf("%s: Decode = %v, want ErrArtifact", name, err)
		}
	}
}

func TestDecodeRejectsSemanticGarbage(t *testing.T) {
	// The γ-variant artifact, so the ScenLossOpt range check has a vector to
	// reject.
	s, err := solvedTriangleGamma()
	if err != nil {
		t.Fatal(err)
	}
	// Re-encoding after each mutation produces a valid header over a
	// semantically broken payload, so only the validation layer can reject.
	mutate := []struct {
		name string
		fn   func(a *Artifact)
	}{
		{"self-loop edge", func(a *Artifact) { a.Edges[0].B = a.Edges[0].A }},
		{"edge node range", func(a *Artifact) { a.Edges[0].A = a.NumNodes }},
		{"negative capacity", func(a *Artifact) { a.Edges[0].Capacity = -1 }},
		{"unordered pair", func(a *Artifact) { a.Pairs[0] = [2]int{1, 0} }},
		{"beta range", func(a *Artifact) { a.Classes[0].Beta = 1.5 }},
		{"negative demand", func(a *Artifact) { a.Demand[0][0] = -2 }},
		{"prob range", func(a *Artifact) { a.Scenarios[0].Prob = 2 }},
		{"failed edge range", func(a *Artifact) { a.Scenarios[1].Failed = []int{len(a.Edges)} }},
		{"unsorted failed", func(a *Artifact) { a.Scenarios[7].Failed = []int{2, 1, 0} }},
		{"scenloss range", func(a *Artifact) { a.ScenLossOpt[0] = -0.5 }},
		{"path bad edge", func(a *Artifact) { a.Tunnels[0][0][0].Edges[0] = len(a.Edges) - 1 }},
	}
	for _, m := range mutate {
		a, err := Decode(s.blob) // fresh copy each time
		if err != nil {
			t.Fatal(err)
		}
		m.fn(a)
		if _, err := Decode(a.Encode()); !errors.Is(err, ErrArtifact) {
			t.Errorf("%s: Decode accepted mutated artifact (err=%v)", m.name, err)
		}
	}
}

func TestParseQuery(t *testing.T) {
	req, err := ParseQuery("2, 0,1")
	if err != nil || len(req.Failed) != 3 || req.Failed[0] != 0 || req.Failed[2] != 2 {
		t.Fatalf("ParseQuery = %v, %v", req, err)
	}
	if req, err := ParseQuery(""); err != nil || len(req.Failed) != 0 {
		t.Fatalf("empty query = %v, %v", req, err)
	}
	for _, in := range []string{"x", "1,,2", "-1", "1.5"} {
		if _, err := ParseQuery(in); !errors.Is(err, ErrBadRequest) {
			t.Errorf("ParseQuery(%q) = %v, want ErrBadRequest", in, err)
		}
	}
}

func TestLRUCache(t *testing.T) {
	c := newLRUCache(2)
	c.put(1, []byte("a"))
	c.put(2, []byte("b"))
	if _, ok := c.get(1); !ok {
		t.Fatal("1 evicted too early")
	}
	c.put(3, []byte("c")) // evicts 2 (1 was just touched)
	if _, ok := c.get(2); ok {
		t.Fatal("2 should have been evicted")
	}
	if v, ok := c.get(3); !ok || string(v) != "c" {
		t.Fatalf("get(3) = %q, %v", v, ok)
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}

	off := newLRUCache(0)
	off.put(1, []byte("a"))
	if _, ok := off.get(1); ok {
		t.Fatal("capacity-0 cache must never hit")
	}

	unbounded := newLRUCache(-1)
	for i := 0; i < 100; i++ {
		unbounded.put(i, []byte{byte(i)})
	}
	if unbounded.len() != 100 {
		t.Fatalf("unbounded cache evicted: len = %d", unbounded.len())
	}
}
