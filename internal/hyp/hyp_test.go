package hyp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
)

func demoHypothesis() Hypothesis {
	return Hypothesis{
		Name:  "h-demo",
		Claim: "the demo always passes",
		Run: func(_ context.Context, p Params) (*Verdict, error) {
			v := NewVerdict(Hypothesis{Name: "h-demo", Claim: "the demo always passes"}, p)
			v.Workloadf("topology", "Triangle")
			v.Check("flows", "==", 2, 2)
			return v.Finalize(), nil
		},
	}
}

func TestVerdictFinalize(t *testing.T) {
	v := NewVerdict(Hypothesis{Name: "h-x", Claim: "c"}, Params{}.withDefaults())
	if v.Finalize().Pass {
		t.Fatal("verdict with no checks must not pass")
	}
	v.Check("a", ">=", 2, 1)
	if !v.Finalize().Pass {
		t.Fatal("passing check should pass")
	}
	v.Check("b", "<=", 2, 1)
	if v.Finalize().Pass {
		t.Fatal("one failing check must fail the verdict")
	}
}

func TestCompareOps(t *testing.T) {
	cases := []struct {
		op         string
		got, want  float64
		expectPass bool
	}{
		{">=", 2, 2, true}, {">=", 1.9, 2, false},
		{"<=", 0.02, 0.03, true}, {"<=", 0.04, 0.03, false},
		{"==", 12, 12, true}, {"==", 12, 11, false},
	}
	for _, c := range cases {
		ok, err := compare(c.op, c.got, c.want)
		if err != nil {
			t.Fatalf("compare(%q): %v", c.op, err)
		}
		if ok != c.expectPass {
			t.Errorf("compare(%v %s %v) = %v, want %v", c.got, c.op, c.want, ok, c.expectPass)
		}
	}
	if _, err := compare("!=", 1, 2); err == nil {
		t.Fatal("unknown op must error")
	}
}

// TestCanonicalDeterministic pins the contract that makes verdict files
// diffable in CI: two runs at one seed canonicalize to the same bytes, the
// payload is JSON that decodes back to the verdict, and it ends with a
// newline.
func TestCanonicalDeterministic(t *testing.T) {
	run := func() []byte {
		res := Run(context.Background(), demoHypothesis(), Params{Seed: 7})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res.Verdict.Canonical()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical payloads differ between two runs:\n%s\nvs\n%s", a, b)
	}
	var dec Verdict
	if err := json.Unmarshal(a, &dec); err != nil {
		t.Fatalf("canonical payload is not valid JSON: %v", err)
	}
	if dec.Seed != 7 || dec.Workload["topology"] != "Triangle" || len(dec.Checks) != 1 ||
		dec.Checks[0] != (Check{Name: "flows", Op: "==", Want: 2, Got: 2, Pass: true}) || !dec.Pass {
		t.Fatalf("decoded verdict lost content: %+v", dec)
	}
	if !strings.HasSuffix(string(a), "\n") {
		t.Fatal("canonical payload must end with a newline")
	}
}

func TestWriteVerifyRoundTrip(t *testing.T) {
	dir := t.TempDir()
	res := Run(context.Background(), demoHypothesis(), Params{Seed: 7})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	v := res.Verdict
	if !v.Pass {
		t.Fatalf("demo verdict failed: %+v", v)
	}

	// No file yet: drift.
	if err := v.Verify(dir); !errors.Is(err, ErrDrift) {
		t.Fatalf("missing file should be drift, got %v", err)
	}
	if err := v.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := v.Verify(dir); err != nil {
		t.Fatalf("freshly written verdict should verify: %v", err)
	}

	// Tamper: a changed threshold is drift.
	path := VerdictFile(dir, "h-demo")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bytes.Replace(data, []byte(`"want": 2`), []byte(`"want": 3`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := v.Verify(dir); !errors.Is(err, ErrDrift) {
		t.Fatalf("tampered file should be drift, got %v", err)
	}
}

func TestRegistry(t *testing.T) {
	mk := func(name string) Hypothesis {
		return Hypothesis{Name: name, Run: func(context.Context, Params) (*Verdict, error) { return nil, nil }}
	}
	r, err := NewRegistry(mk("h-b"), mk("h-a"))
	if err != nil {
		t.Fatal(err)
	}
	all := r.All()
	if len(all) != 2 || all[0].Name != "h-a" || all[1].Name != "h-b" {
		t.Fatalf("registry not name-ordered: %v", all)
	}
	if _, ok := r.Get("h-a"); !ok {
		t.Fatal("Get missed a registered hypothesis")
	}
	if _, ok := r.Get("h-z"); ok {
		t.Fatal("Get invented a hypothesis")
	}
	if _, err := NewRegistry(mk("h-a"), mk("h-a")); err == nil {
		t.Fatal("duplicate names must be rejected")
	}
	if _, err := NewRegistry(Hypothesis{Name: ""}); err == nil {
		t.Fatal("empty name must be rejected")
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	if p.Seed != 1 || p.Workers != 4 || p.Log == nil {
		t.Fatalf("unexpected defaults: %+v", p)
	}
}
