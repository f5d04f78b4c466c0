package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"flexile"
)

// TestCheckGamma: -gamma 0 is refused (the design would read it as "no
// bound"); a positive γ bounds and a negative one disables, both accepted.
func TestCheckGamma(t *testing.T) {
	if checkGamma(0) == nil {
		t.Fatal("-gamma 0 accepted")
	}
	for _, g := range []float64{-1, 1e-9, 0.1} {
		if err := checkGamma(g); err != nil {
			t.Fatalf("-gamma %v: %v", g, err)
		}
	}
}

// TestRunSolvesOnce: a run that routes every scenario and exports the
// artifact runs the offline decomposition once, and the artifact is the
// one a separate Design of the same instance exports.
func TestRunSolvesOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ibm.flxa")
	var stdout bytes.Buffer
	if err := run([]string{"-topo", "IBM", "-artifact", path, "-metrics"}, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	out := stdout.Bytes()
	i := bytes.Index(out, []byte("\n{"))
	if i < 0 {
		t.Fatalf("no metrics JSON on stdout:\n%s", out)
	}
	var m struct {
		Decomp struct {
			Solves int64 `json:"solves"`
		} `json:"decomposition"`
	}
	if err := json.Unmarshal(out[i+1:], &m); err != nil {
		t.Fatal(err)
	}
	if m.Decomp.Solves != 1 {
		t.Errorf("decomposition.solves = %d, want 1", m.Decomp.Solves)
	}

	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := flexile.LoadTopology("IBM")
	if err != nil {
		t.Fatal(err)
	}
	inst := flexile.NewSingleClassInstance(tp, 3)
	if err := flexile.ApplyGravityTraffic(inst, 1, 0.6); err != nil {
		t.Fatal(err)
	}
	flexile.GenerateFailures(inst, 2, 1e-5, 50)
	flexile.SetDesignTarget(inst)
	opt := flexile.DesignOptions{MaxIterations: 5, Gamma: -1}
	design, err := flexile.Design(inst, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := flexile.ExportArtifact(inst, design, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("artifact differs from ExportArtifact of Design: %d bytes, want %d", len(got), len(want))
	}
}
