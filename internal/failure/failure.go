// Package failure models link failures: Weibull-distributed per-link
// failure probabilities (the paper's §6 methodology, following Teavar),
// enumeration of disjoint failure scenarios above a probability cutoff,
// shared-risk link groups (SRLGs), and the design-target computation used
// to pick each experiment's percentile β.
package failure

import (
	"math"
	"math/rand"
	"sort"

	"flexile/internal/graph"
)

// Scenario is one disjoint network state: exactly the listed edges are
// failed and every other edge is alive. Prob is the exact probability of
// that state under independent failures.
type Scenario struct {
	Failed []int // sorted edge ids
	Prob   float64
}

// IsFailed reports whether edge e is failed in the scenario.
func (s Scenario) IsFailed(e int) bool {
	i := sort.SearchInts(s.Failed, e)
	return i < len(s.Failed) && s.Failed[i] == e
}

// Alive returns an edge-alive predicate for the scenario.
func (s Scenario) Alive() func(edge int) bool {
	return func(e int) bool { return !s.IsFailed(e) }
}

// AliveMask materializes the per-edge alive indicator (the paper's m_eq).
func (s Scenario) AliveMask(numEdges int) []bool {
	m := make([]bool, numEdges)
	for e := range m {
		m[e] = true
	}
	for _, e := range s.Failed {
		m[e] = false
	}
	return m
}

// WeibullParams control per-link failure probability generation.
type WeibullParams struct {
	// Shape is the Weibull shape parameter k; 0 means 0.8 (heavy-tailed,
	// as in Teavar's fit to production data).
	Shape float64
	// Median is the target median failure probability; 0 means 0.001
	// (matching the empirical WAN studies cited in §6).
	Median float64
	// Min and Max clamp the sampled probabilities; zero values mean
	// [1e-5, 0.2].
	Min, Max float64
}

func (w WeibullParams) withDefaults() WeibullParams {
	if w.Shape == 0 {
		w.Shape = 0.8
	}
	if w.Median == 0 {
		w.Median = 0.001
	}
	if w.Min == 0 {
		w.Min = 1e-5
	}
	if w.Max == 0 {
		w.Max = 0.2
	}
	return w
}

// WeibullProbs samples one failure probability per edge of g.
func WeibullProbs(g *graph.Graph, seed int64, params WeibullParams) []float64 {
	params = params.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	// Median of Weibull(k, λ) is λ·(ln 2)^(1/k); pick λ to hit the target.
	lambda := params.Median / math.Pow(math.Ln2, 1/params.Shape)
	out := make([]float64, g.NumEdges())
	for e := range out {
		u := rng.Float64()
		x := lambda * math.Pow(-math.Log(1-u), 1/params.Shape)
		if x < params.Min {
			x = params.Min
		}
		if x > params.Max {
			x = params.Max
		}
		out[e] = x
	}
	return out
}

// Enumerate lists every failure scenario whose exact probability is at
// least cutoff, sorted by decreasing probability. The scenarios are
// disjoint; their probabilities sum to at most 1, with the residual mass
// belonging to discarded (lower-probability) states.
func Enumerate(probs []float64, cutoff float64) []Scenario {
	n := len(probs)
	// Order edges by decreasing failure probability so pruning bites early.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return probs[order[a]] > probs[order[b]] })
	// tailAlive[i] = Π_{j≥i} (1−p_order[j]): the largest factor any
	// completion of a prefix decision can contribute.
	tailAlive := make([]float64, n+1)
	tailAlive[n] = 1
	for i := n - 1; i >= 0; i-- {
		tailAlive[i] = tailAlive[i+1] * (1 - probs[order[i]])
	}
	var out []Scenario
	var failed []int
	var rec func(i int, prob float64)
	rec = func(i int, prob float64) {
		if prob*tailAlive[i] < cutoff {
			return
		}
		if i == n {
			s := Scenario{Failed: append([]int(nil), failed...), Prob: prob}
			sort.Ints(s.Failed)
			out = append(out, s)
			return
		}
		e := order[i]
		rec(i+1, prob*(1-probs[e])) // edge alive
		failed = append(failed, e)
		rec(i+1, prob*probs[e]) // edge failed
		failed = failed[:len(failed)-1]
	}
	rec(0, 1)
	sort.SliceStable(out, func(a, b int) bool { return out[a].Prob > out[b].Prob })
	return out
}

// SRLG is a shared-risk link group: a set of edges that fail together with
// the given probability.
type SRLG struct {
	Edges []int
	Prob  float64
}

// EnumerateSRLG lists scenarios over independent SRLG failures. A scenario's
// failed edge set is the union of the failed groups' edges.
func EnumerateSRLG(groups []SRLG, cutoff float64) []Scenario {
	probs := make([]float64, len(groups))
	for i, g := range groups {
		probs[i] = g.Prob
	}
	raw := Enumerate(probs, cutoff)
	out := make([]Scenario, len(raw))
	for i, s := range raw {
		set := map[int]bool{}
		for _, gi := range s.Failed {
			for _, e := range groups[gi].Edges {
				set[e] = true
			}
		}
		failed := make([]int, 0, len(set))
		for e := range set {
			failed = append(failed, e)
		}
		sort.Ints(failed)
		out[i] = Scenario{Failed: failed, Prob: s.Prob}
	}
	return out
}

// MassFloor is the probability mass below which a residual or a shortfall
// counts as zero. A sum of |Q| scenario probabilities carries rounding
// near |Q|·2⁻⁵³ (1e-13 for a thousand scenarios), so a smaller floor would
// read rounding as mass. It sits three orders below lp.DefaultTol (1e-9),
// the slack by which a design target stays under a connected mass, so
// what it ignores cannot move a target.
const MassFloor = 1e-12

// Coverage returns the total probability mass of the scenarios.
func Coverage(scens []Scenario) float64 {
	tot := 0.0
	for _, s := range scens {
		tot += s.Prob
	}
	return tot
}

// Sample draws n failure scenarios by Monte Carlo under independent link
// failures (the sampling alternative §6 mentions for very large networks,
// where exhaustive enumeration above a cutoff is impractical). Duplicate
// draws are merged; each returned scenario carries its exact analytic
// probability, so the result plugs into the same percentile machinery as
// Enumerate. The all-alive state is always included. Scenarios are sorted
// by decreasing probability.
func Sample(probs []float64, n int, seed int64) []Scenario {
	rng := rand.New(rand.NewSource(seed))
	aliveProb := 1.0
	for _, p := range probs {
		aliveProb *= 1 - p
	}
	seen := map[string]Scenario{"": {Prob: aliveProb}}
	var key []byte
	for draw := 0; draw < n; draw++ {
		var failed []int
		prob := 1.0
		for e, p := range probs {
			if rng.Float64() < p {
				failed = append(failed, e)
				prob *= p
			} else {
				prob *= 1 - p
			}
		}
		key = key[:0]
		for _, e := range failed {
			key = append(key, byte(e), byte(e>>8))
		}
		if _, ok := seen[string(key)]; !ok {
			seen[string(key)] = Scenario{Failed: failed, Prob: prob}
		}
	}
	out := make([]Scenario, 0, len(seen))
	for _, s := range seen {
		out = append(out, s)
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Prob != out[b].Prob {
			return out[a].Prob > out[b].Prob
		}
		return len(out[a].Failed) < len(out[b].Failed)
	})
	return out
}
