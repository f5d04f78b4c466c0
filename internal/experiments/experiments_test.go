package experiments

import (
	"math"
	"strings"
	"testing"

	"flexile/internal/eval"
	"flexile/internal/te"
)

// tinyCfg keeps experiment tests fast.
func tinyCfg() Config { return Config{Scale: Tiny, Seed: 1} }

// noFailures fails a shape test whose figure dropped a topology: a shape
// checked over fewer topologies than the figure promises proves nothing
// about the missing ones.
func noFailures(t *testing.T, fails []TopoFailure) {
	t.Helper()
	if len(fails) > 0 {
		t.Fatalf("the figure dropped %d topologies:\n%s", len(fails), renderFailures(fails))
	}
}

func TestFig1Motivation(t *testing.T) {
	res, err := Fig1Motivation()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.PercLoss["Flexile"]; got > 1e-6 {
		t.Fatalf("Flexile = %v, want 0", got)
	}
	if got := res.PercLoss["SMORE"]; math.Abs(got-0.5) > 1e-6 {
		t.Fatalf("SMORE = %v, want 0.5", got)
	}
	if got := res.PercLoss["Teavar"]; got < 0.4851-1e-6 {
		t.Fatalf("Teavar = %v, want ≥0.4851", got)
	}
	if !strings.Contains(res.Render(), "Flexile") {
		t.Fatal("render missing scheme rows")
	}
}

func TestFig5Shape(t *testing.T) {
	res, err := Fig5(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Paper shape: Flexile dominates — its worst flow loses no more than
	// ScenBest's, and ScenBest no more than Teavar's.
	if res.Worst["Flexile"] > res.Worst["ScenBest"]+1e-6 {
		t.Fatalf("Flexile worst %v > ScenBest %v", res.Worst["Flexile"], res.Worst["ScenBest"])
	}
	if res.Worst["ScenBest"] > res.Worst["Teavar"]+1e-6 {
		t.Fatalf("ScenBest worst %v > Teavar %v", res.Worst["ScenBest"], res.Worst["Teavar"])
	}
	// Flexile keeps (weakly) more flows at zero loss.
	if res.FracZero["Flexile"] < res.FracZero["ScenBest"]-1e-9 {
		t.Fatalf("Flexile zero-frac %v < ScenBest %v", res.FracZero["Flexile"], res.FracZero["ScenBest"])
	}
	if res.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestFig6Shape(t *testing.T) {
	res, err := Fig6(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Flexile's scenario-loss penalty at 99.9% is no worse than Teavar's.
	fx, tv := res.PenaltyAt["Flexile"], res.PenaltyAt["Teavar"]
	if fx[0] > tv[0]+1e-6 {
		t.Fatalf("Flexile penalty %v > Teavar %v at 99.9%%", fx[0], tv[0])
	}
	if res.Render() == "" {
		t.Fatal("empty render")
	}
}

func TestFig10Shape(t *testing.T) {
	res, err := Fig10(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	noFailures(t, res.Failures)
	// High-priority traffic: every scheme keeps PercLoss at zero (§6.2).
	for s, vals := range res.HighPercLoss {
		for i, v := range vals {
			if v > 0.05 {
				t.Fatalf("%s high-priority PercLoss %v on %s", s, v, res.Topologies[i])
			}
		}
	}
	// Low priority: Flexile's median beats both SWAN variants.
	if res.Medians["Flexile"] > res.Medians["SWAN-Maxmin"]+1e-6 {
		t.Fatalf("Flexile median %v > SWAN-Maxmin %v", res.Medians["Flexile"], res.Medians["SWAN-Maxmin"])
	}
	if res.Medians["Flexile"] > res.Medians["SWAN-Throughput"]+1e-6 {
		t.Fatalf("Flexile median %v > SWAN-Throughput %v", res.Medians["Flexile"], res.Medians["SWAN-Throughput"])
	}
	t.Log("\n" + res.Render())
}

func TestFig11Shape(t *testing.T) {
	res, err := Fig11(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	noFailures(t, res.Failures)
	// Ordering of medians: Flexile ≤ Cvar-Flow-Ad ≤ Cvar-Flow-St ≤ Teavar.
	m := res.Medians
	if m["Flexile"] > m["Cvar-Flow-Ad"]+1e-6 {
		t.Fatalf("Flexile %v > Cvar-Flow-Ad %v", m["Flexile"], m["Cvar-Flow-Ad"])
	}
	if m["Cvar-Flow-Ad"] > m["Cvar-Flow-St"]+1e-6 {
		t.Fatalf("Cvar-Flow-Ad %v > Cvar-Flow-St %v", m["Cvar-Flow-Ad"], m["Cvar-Flow-St"])
	}
	if m["Cvar-Flow-St"] > m["Teavar"]+1e-6 {
		t.Fatalf("Cvar-Flow-St %v > Teavar %v", m["Cvar-Flow-St"], m["Teavar"])
	}
	t.Log("\n" + res.Render())
}

func TestTable2(t *testing.T) {
	res := Table2()
	if len(res.Rows) != 20 {
		t.Fatalf("want 20 rows, got %d", len(res.Rows))
	}
	out := res.Render()
	if !strings.Contains(out, "Deltacom") || !strings.Contains(out, "103") {
		t.Fatal("render missing Deltacom 103")
	}
}

func TestPearson(t *testing.T) {
	if got := Pearson([]float64{1, 2, 3}, []float64{2, 4, 6}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("PCC = %v, want 1", got)
	}
	if got := Pearson([]float64{1, 2, 3}, []float64{3, 2, 1}); math.Abs(got+1) > 1e-12 {
		t.Fatalf("PCC = %v, want -1", got)
	}
	if got := Pearson([]float64{1, 1}, []float64{1, 1}); got != 1 {
		t.Fatalf("constant-vs-constant PCC = %v, want 1", got)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{Scale: Paper}.withDefaults()
	if len(c.Topologies) != 20 {
		t.Fatalf("paper scale should cover 20 topologies, got %d", len(c.Topologies))
	}
	if c.Cutoff != 1e-6 {
		t.Fatalf("paper cutoff = %v", c.Cutoff)
	}
	ct := Config{Scale: Tiny}.withDefaults()
	if len(ct.Topologies) != 2 || ct.MaxScenarios != 12 {
		t.Fatalf("tiny defaults wrong: %+v", ct)
	}
	// Seeds differ per topology and are stable.
	if ct.topoSeed("IBM") == ct.topoSeed("B4") {
		t.Fatal("topology seeds should differ")
	}
	if ct.topoSeed("IBM") != ct.topoSeed("IBM") {
		t.Fatal("topology seeds should be stable")
	}
}

func TestSingleClassSetup(t *testing.T) {
	inst, err := tinyCfg().SingleClass("Sprint")
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Scenarios) == 0 || len(inst.Scenarios) > 12 {
		t.Fatalf("scenario count %d outside cap", len(inst.Scenarios))
	}
	if inst.Classes[0].Beta <= 0.5 || inst.Classes[0].Beta >= 1 {
		t.Fatalf("design beta = %v", inst.Classes[0].Beta)
	}
	// Demands are populated.
	if inst.TotalDemand() <= 0 {
		t.Fatal("no demand generated")
	}
}

func TestTwoClassSetup(t *testing.T) {
	inst, err := tinyCfg().TwoClass("Sprint")
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Classes) != 2 {
		t.Fatal("want two classes")
	}
	if inst.Classes[1].Beta > 0.99+1e-12 {
		t.Fatalf("low class beta %v", inst.Classes[1].Beta)
	}
}

// TestPipelineDeterminism: the full instance-construction pipeline is
// bit-for-bit reproducible for a given seed.
func TestPipelineDeterminism(t *testing.T) {
	a, err := tinyCfg().SingleClass("Sprint")
	if err != nil {
		t.Fatal(err)
	}
	b, err := tinyCfg().SingleClass("Sprint")
	if err != nil {
		t.Fatal(err)
	}
	if a.Classes[0].Beta != b.Classes[0].Beta {
		t.Fatal("beta differs")
	}
	if len(a.Scenarios) != len(b.Scenarios) {
		t.Fatal("scenario count differs")
	}
	for q := range a.Scenarios {
		if a.Scenarios[q].Prob != b.Scenarios[q].Prob {
			t.Fatal("scenario probabilities differ")
		}
	}
	for i := range a.Pairs {
		if a.Demand[0][i] != b.Demand[0][i] {
			t.Fatal("demands differ")
		}
	}
	// A different seed changes the demands.
	c, err := Config{Scale: Tiny, Seed: 2}.SingleClass("Sprint")
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Pairs {
		if a.Demand[0][i] != c.Demand[0][i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical demands")
	}
}

// TestRunSchemeRejectsInfeasibleRouting: the harness validates capacity.
func TestRunSchemeRejectsInfeasibleRouting(t *testing.T) {
	inst, err := tinyCfg().SingleClass("Sprint")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunScheme(badScheme{}, inst); err == nil {
		t.Fatal("oversubscribed routing must be rejected")
	}
}

type badScheme struct{}

func (badScheme) Name() string { return "bad" }

func (badScheme) Route(inst *te.Instance) (*te.Routing, error) {
	r := te.NewRouting(inst)
	// Grossly oversubscribe the first tunnel of every flow.
	for q := range inst.Scenarios {
		for i := range inst.Pairs {
			if len(r.X[q][0][i]) > 0 {
				r.X[q][0][i][0] = 1e6
			}
		}
	}
	return r, nil
}

func TestRenderCDFSampling(t *testing.T) {
	var pts []eval.CDFPoint
	for i := 0; i < 50; i++ {
		pts = append(pts, eval.CDFPoint{Value: float64(i), Cum: float64(i+1) / 50})
	}
	out := renderCDF(pts, 5)
	if strings.Count(out, "@") != 5 {
		t.Fatalf("want 5 sampled points, got %q", out)
	}
	// Ends preserved.
	if !strings.HasPrefix(out, "0.000@") || !strings.Contains(out, "49.000@1.0000") {
		t.Fatalf("ends missing: %q", out)
	}
	// Short CDFs pass through unsampled.
	short := renderCDF(pts[:3], 5)
	if strings.Count(short, "@") != 3 {
		t.Fatalf("short cdf resampled: %q", short)
	}
}
