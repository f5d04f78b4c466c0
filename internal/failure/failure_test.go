package failure

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"flexile/internal/topo"
)

func TestEnumerateExhaustiveTiny(t *testing.T) {
	// Three links with p = 0.1, 0.2, 0.3 and cutoff 0 → all 8 scenarios.
	probs := []float64{0.1, 0.2, 0.3}
	scens := Enumerate(probs, 0)
	if len(scens) != 8 {
		t.Fatalf("want 8 scenarios, got %d", len(scens))
	}
	tot := Coverage(scens)
	if math.Abs(tot-1) > 1e-12 {
		t.Fatalf("total probability %v, want 1", tot)
	}
	// The all-alive scenario must be first (largest probability).
	if len(scens[0].Failed) != 0 {
		t.Fatalf("first scenario should be all-alive, got %v", scens[0].Failed)
	}
	want := 0.9 * 0.8 * 0.7
	if math.Abs(scens[0].Prob-want) > 1e-12 {
		t.Fatalf("all-alive prob %v, want %v", scens[0].Prob, want)
	}
}

func TestEnumerateCutoff(t *testing.T) {
	probs := []float64{0.01, 0.01, 0.01, 0.01}
	scens := Enumerate(probs, 1e-3)
	// All-alive (≈0.96) and the four single failures (≈0.0097) survive;
	// double failures ≈ 9.7e-5 < 1e-3 are cut.
	if len(scens) != 5 {
		t.Fatalf("want 5 scenarios, got %d", len(scens))
	}
	for _, s := range scens {
		if s.Prob < 1e-3 {
			t.Fatalf("scenario below cutoff: %v", s)
		}
		if len(s.Failed) > 1 {
			t.Fatalf("double failure survived the cutoff: %v", s.Failed)
		}
	}
}

func TestEnumerateProbabilitiesExact(t *testing.T) {
	probs := []float64{0.2, 0.05}
	scens := Enumerate(probs, 0)
	byKey := map[string]float64{}
	for _, s := range scens {
		k := ""
		for _, e := range s.Failed {
			k += string(rune('a' + e))
		}
		byKey[k] = s.Prob
	}
	checks := map[string]float64{
		"":   0.8 * 0.95,
		"a":  0.2 * 0.95,
		"b":  0.8 * 0.05,
		"ab": 0.2 * 0.05,
	}
	for k, want := range checks {
		if math.Abs(byKey[k]-want) > 1e-12 {
			t.Errorf("scenario %q prob %v, want %v", k, byKey[k], want)
		}
	}
}

// Property: scenario probabilities are disjoint and sum to ≤ 1; every
// scenario meets the cutoff; sorted descending.
func TestEnumerateProperties(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		tp := topo.Triangle()
		probs := WeibullProbs(tp.G, seed, WeibullParams{})
		scens := Enumerate(probs, 1e-7)
		if Coverage(scens) > 1+1e-9 {
			return false
		}
		for i, s := range scens {
			if s.Prob < 1e-7 {
				return false
			}
			if i > 0 && s.Prob > scens[i-1].Prob+1e-15 {
				return false
			}
			if !sort.IntsAreSorted(s.Failed) {
				return false
			}
		}
		// Disjointness: no two scenarios share the same failed set.
		seen := map[string]bool{}
		for _, s := range scens {
			k := ""
			for _, e := range s.Failed {
				k += string(rune('0' + e))
			}
			if seen[k] {
				return false
			}
			seen[k] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestWeibullMedian(t *testing.T) {
	tp := topo.MustLoad("Deltacom") // 151 edges: enough samples
	probs := WeibullProbs(tp.G, 1, WeibullParams{})
	sorted := append([]float64(nil), probs...)
	sort.Float64s(sorted)
	med := sorted[len(sorted)/2]
	if med < 0.0002 || med > 0.005 {
		t.Fatalf("median failure probability %v too far from 0.001", med)
	}
	for _, p := range probs {
		if p < 1e-5 || p > 0.2 {
			t.Fatalf("probability %v outside clamp", p)
		}
	}
}

func TestWeibullDeterministic(t *testing.T) {
	tp := topo.MustLoad("IBM")
	a := WeibullProbs(tp.G, 7, WeibullParams{})
	b := WeibullProbs(tp.G, 7, WeibullParams{})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give same probabilities")
		}
	}
	c := WeibullProbs(tp.G, 8, WeibullParams{})
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestScenarioHelpers(t *testing.T) {
	s := Scenario{Failed: []int{1, 3}, Prob: 0.5}
	if !s.IsFailed(1) || !s.IsFailed(3) || s.IsFailed(0) || s.IsFailed(2) {
		t.Fatal("IsFailed wrong")
	}
	alive := s.Alive()
	if alive(1) || !alive(0) {
		t.Fatal("Alive predicate wrong")
	}
	mask := s.AliveMask(5)
	want := []bool{true, false, true, false, true}
	for i := range want {
		if mask[i] != want[i] {
			t.Fatalf("mask[%d] = %v", i, mask[i])
		}
	}
}

func TestSRLGEnumeration(t *testing.T) {
	// Two SRLGs: group 0 = edges {0,1}, group 1 = edge {2}.
	groups := []SRLG{
		{Edges: []int{0, 1}, Prob: 0.1},
		{Edges: []int{2}, Prob: 0.2},
	}
	scens := EnumerateSRLG(groups, 0)
	if len(scens) != 4 {
		t.Fatalf("want 4 scenarios, got %d", len(scens))
	}
	// Find the scenario where only group 0 fails: edges {0,1} down.
	found := false
	for _, s := range scens {
		if len(s.Failed) == 2 && s.Failed[0] == 0 && s.Failed[1] == 1 {
			found = true
			if math.Abs(s.Prob-0.1*0.8) > 1e-12 {
				t.Fatalf("group-0 scenario prob %v", s.Prob)
			}
		}
	}
	if !found {
		t.Fatal("group-0 failure scenario missing")
	}
}

func TestSampleBasics(t *testing.T) {
	probs := []float64{0.3, 0.2, 0.1}
	scens := Sample(probs, 2000, 7)
	// All-alive always present and exact.
	if len(scens[0].Failed) != 0 {
		t.Fatalf("first scenario should be all-alive (largest prob)")
	}
	wantAlive := 0.7 * 0.8 * 0.9
	if math.Abs(scens[0].Prob-wantAlive) > 1e-12 {
		t.Fatalf("all-alive prob %v, want %v", scens[0].Prob, wantAlive)
	}
	// Probabilities are analytic, not empirical: check one single-failure
	// scenario if present.
	for _, s := range scens {
		if len(s.Failed) == 1 && s.Failed[0] == 0 {
			want := 0.3 * 0.8 * 0.9
			if math.Abs(s.Prob-want) > 1e-12 {
				t.Fatalf("scenario {0} prob %v, want %v", s.Prob, want)
			}
		}
	}
	// No duplicates; total ≤ 1.
	if Coverage(scens) > 1+1e-9 {
		t.Fatalf("coverage %v", Coverage(scens))
	}
	seen := map[string]bool{}
	for _, s := range scens {
		k := fmt.Sprint(s.Failed)
		if seen[k] {
			t.Fatalf("duplicate scenario %v", s.Failed)
		}
		seen[k] = true
	}
	// With 2000 draws over 3 links the high-probability states are surely
	// found: coverage must be near complete.
	if Coverage(scens) < 0.99 {
		t.Fatalf("coverage %v too low for exhaustive-ish sampling", Coverage(scens))
	}
}

func TestSampleDeterministic(t *testing.T) {
	probs := []float64{0.05, 0.05, 0.05, 0.05}
	a := Sample(probs, 100, 3)
	b := Sample(probs, 100, 3)
	if len(a) != len(b) {
		t.Fatal("nondeterministic")
	}
	for i := range a {
		if a[i].Prob != b[i].Prob {
			t.Fatal("nondeterministic probabilities")
		}
	}
}
