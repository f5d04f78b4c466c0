package te_test

import (
	"encoding/json"
	"os"
	"strconv"
	"testing"
	"time"

	"flexile/internal/experiments"
	flexscheme "flexile/internal/scheme/flexile"
)

// missSide is one side of the h-miss-latency comparison: the LP work of one
// pass over every scenario of the fixture, and the fastest such pass.
type missSide struct {
	LPSolves int64   `json:"lp_solves"`
	Pivots   int64   `json:"pivots"`
	BestS    float64 `json:"best_s"`
}

// missReport is what TestMissLatencyReport hands the hypothesis.
type missReport struct {
	Scenarios int      `json:"scenarios"`
	Passes    int      `json:"passes"`
	Hot       missSide `json:"hot"`  // flexscheme.Online (te.MaxMin)
	Cold      missSide `json:"cold"` // maxMinCold on the same problems
}

// TestMissLatencyReport is the measuring half of the h-miss-latency
// hypothesis (internal/hyp/exps/misslatency.go). The hypothesis compares the
// production online allocation with the per-level-rebuild reference, and the
// reference exists only in this package's test files — so the hypothesis
// runs this test (`go test -run '^TestMissLatencyReport$'`) with
// FLEXILE_MISS_REPORT naming the file to write, and reads the counts and
// wall-clocks back. Without that variable the test does nothing.
func TestMissLatencyReport(t *testing.T) {
	path := os.Getenv("FLEXILE_MISS_REPORT")
	if path == "" {
		t.Skip("driven by the h-miss-latency hypothesis; set FLEXILE_MISS_REPORT to run it by hand")
	}
	envInt := func(name string, def int) int {
		s := os.Getenv(name)
		if s == "" {
			return def
		}
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("%s=%q: %v", name, s, err)
		}
		return n
	}
	rep := missReport{Passes: envInt("FLEXILE_MISS_PASSES", 3)}
	inst, err := experiments.Config{Scale: experiments.Tiny, Seed: int64(envInt("FLEXILE_MISS_SEED", 1))}.SingleClass("IBM")
	if err != nil {
		t.Fatal(err)
	}
	off, err := flexscheme.Offline(inst, flexscheme.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep.Scenarios = len(inst.Scenarios)

	hot := func() {
		for q := range inst.Scenarios {
			if _, err := flexscheme.Online(inst, off, q, flexscheme.Options{}); err != nil {
				t.Fatalf("scenario %d: %v", q, err)
			}
		}
	}
	cold := func() {
		for q, scen := range inst.Scenarios {
			opt, err := flexscheme.OnlineOptions(inst, off, q, flexscheme.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := maxMinCold(inst, scen, opt); err != nil {
				t.Fatalf("scenario %d: oracle: %v", q, err)
			}
		}
	}
	// Counts first (one untimed pass each, collector attached), then the
	// timed passes with nothing attached, sides alternating.
	rep.Hot.LPSolves, rep.Hot.Pivots = lpWork(hot)
	rep.Cold.LPSolves, rep.Cold.Pivots = lpWork(cold)
	best := func(side *missSide, pass func()) {
		start := time.Now()
		pass()
		if s := time.Since(start).Seconds(); side.BestS == 0 || s < side.BestS {
			side.BestS = s
		}
	}
	for p := 0; p < rep.Passes; p++ {
		if p%2 == 0 {
			best(&rep.Hot, hot)
			best(&rep.Cold, cold)
		} else {
			best(&rep.Cold, cold)
			best(&rep.Hot, hot)
		}
	}
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}
