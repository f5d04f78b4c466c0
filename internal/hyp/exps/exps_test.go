package exps

import (
	"bytes"
	"context"
	"os"
	"testing"

	"flexile/internal/hyp"
)

// TestQuickTierExperiments runs every hypothesis but h-serve-soak in-process
// and holds it to the `make hypotheses` gate: every check passes, and the
// canonical verdict is byte-identical to the checked-in
// hypotheses/<name>/verdict.json. Every check is a pure function of the
// seed, so neither the race detector nor coverage instrumentation can move
// a byte. h-serve-soak is exercised (and its bitwise determinism proven) by
// TestSoakDeterminism.
func TestQuickTierExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick-tier experiment battery")
	}
	reg, err := All()
	if err != nil {
		t.Fatalf("All: %v", err)
	}
	scratch := t.TempDir()
	for _, h := range reg.All() {
		if h.Name == "h-serve-soak" {
			continue
		}
		t.Run(h.Name, func(t *testing.T) {
			res := hyp.Run(context.Background(), h, hyp.Params{Seed: 1, Scratch: scratch})
			if res.Err != nil {
				t.Fatalf("run: %v", res.Err)
			}
			v := res.Verdict
			if len(v.Checks) == 0 {
				t.Fatal("verdict has no checks")
			}
			for _, c := range v.Checks {
				if !c.Pass {
					t.Errorf("check %s: got %v, want %s %v", c.Name, c.Got, c.Op, c.Want)
				}
			}
			want, err := os.ReadFile(hyp.VerdictFile("../../../hypotheses", h.Name))
			if err != nil {
				t.Fatalf("checked-in verdict: %v", err)
			}
			if got := v.Canonical(); !bytes.Equal(got, want) {
				t.Errorf("verdict drifted from the checked-in file\n--- checked in ---\n%s--- recomputed ---\n%s", want, got)
			}
		})
	}
}
