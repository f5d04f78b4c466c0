package tunnels

import (
	"testing"

	"flexile/internal/graph"
	"flexile/internal/topo"
)

func TestSingleClassDisjointness(t *testing.T) {
	tp := topo.MustLoad("Sprint")
	policy := SingleClass(3)
	pairs, paths := forAllPairs(tp.G, policy)
	if len(pairs) != 45 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	for pi, ps := range paths {
		if len(ps) == 0 {
			t.Fatalf("pair %v has no tunnels", pairs[pi])
		}
		if len(ps) > 3 {
			t.Fatalf("pair %v has %d tunnels, want ≤3", pairs[pi], len(ps))
		}
		for _, p := range ps {
			validate(t, tp.G, p, pairs[pi][0], pairs[pi][1])
		}
	}
}

func validate(t *testing.T, g *graph.Graph, p graph.Path, u, v int) {
	t.Helper()
	if p.Nodes[0] != u || p.Nodes[len(p.Nodes)-1] != v {
		t.Fatalf("path endpoints %v, want %d-%d", p.Nodes, u, v)
	}
	seen := map[int]bool{}
	for _, n := range p.Nodes {
		if seen[n] {
			t.Fatalf("loop in path %v", p.Nodes)
		}
		seen[n] = true
	}
}

// TestSingleClassPrefersDisjoint: on the triangle, the two A-B paths are
// edge-disjoint and both should be selected.
func TestSingleClassPrefersDisjoint(t *testing.T) {
	tp := topo.Triangle()
	ps := SingleClass(3)(tp.G, 0, 1)
	if len(ps) != 2 {
		t.Fatalf("want both triangle paths, got %d", len(ps))
	}
	if hasCommonEdge(ps) {
		t.Fatalf("paths share edges %v", sharedEdges(ps))
	}
}

// TestHighPriorityNoSingleFailureKillsAll: the selected set must not share
// one common edge when the graph offers an alternative.
func TestHighPriorityNoSingleFailureKillsAll(t *testing.T) {
	for _, name := range []string{"Sprint", "B4", "IBM"} {
		tp := topo.MustLoad(name)
		pairs, paths := forAllPairs(tp.G, HighPriority(3))
		for pi, ps := range paths {
			if len(ps) < 2 {
				continue // singleton selection cannot avoid a shared edge
			}
			if hasCommonEdge(ps) {
				// Only acceptable if the graph truly has no way out: all
				// u-v paths must cross that edge. Check by removing the
				// shared edges and testing connectivity.
				shared := sharedEdges(ps)
				alive := func(e int) bool {
					for _, se := range shared {
						if e == se {
							return false
						}
					}
					return true
				}
				u, v := pairs[pi][0], pairs[pi][1]
				if _, ok := tp.G.ShortestPath(u, v, alive); ok {
					t.Errorf("%s pair %v: selection shares edges %v although an alternative exists", name, pairs[pi], shared)
				}
			}
		}
	}
}

func sharedEdges(paths []graph.Path) []int {
	counts := map[int]int{}
	for _, p := range paths {
		seen := map[int]bool{}
		for _, e := range p.Edges {
			if !seen[e] {
				seen[e] = true
				counts[e]++
			}
		}
	}
	var out []int
	for e, c := range counts {
		if c == len(paths) {
			out = append(out, e)
		}
	}
	return out
}

// TestLowPriorityExtendsHigh: the low-priority selection contains the
// high-priority tunnels as a prefix and adds distinct extras.
func TestLowPriorityExtendsHigh(t *testing.T) {
	tp := topo.MustLoad("Sprint")
	hp := HighPriority(3)
	lp := LowPriority(3, 3)
	for u := 0; u < tp.G.NumNodes(); u++ {
		for v := u + 1; v < tp.G.NumNodes(); v++ {
			hps := hp(tp.G, u, v)
			lps := lp(tp.G, u, v)
			if len(lps) < len(hps) {
				t.Fatalf("pair %d-%d: low has fewer tunnels than high", u, v)
			}
			for i := range hps {
				if !lps[i].Equal(hps[i]) {
					t.Fatalf("pair %d-%d: low selection does not extend high", u, v)
				}
			}
			// No duplicates in the low set.
			for i := range lps {
				for j := i + 1; j < len(lps); j++ {
					if lps[i].Equal(lps[j]) {
						t.Fatalf("pair %d-%d: duplicate tunnels", u, v)
					}
				}
			}
		}
	}
}

func TestHasCommonEdge(t *testing.T) {
	tp := topo.Triangle()
	direct, _ := tp.G.ShortestPath(0, 1, nil)
	indirect, _ := tp.G.ShortestPath(0, 1, func(e int) bool { return e != 0 })
	if hasCommonEdge([]graph.Path{direct, indirect}) {
		t.Fatal("disjoint paths flagged as sharing an edge")
	}
	if !hasCommonEdge([]graph.Path{direct, direct}) {
		t.Fatal("identical paths must share edges")
	}
	if hasCommonEdge(nil) {
		t.Fatal("empty set cannot share edges")
	}
}

func TestGreedyDisjointRespectsBase(t *testing.T) {
	tp := topo.Triangle()
	pool := tp.G.KShortestPaths(0, 1, 3) // direct + via C
	// With the direct path as base, the via-C path must be picked first.
	base := []graph.Path{pool[0]}
	out := greedyDisjoint(tp.G, pool, base, 1)
	if len(out) != 1 || out[0].Len() != 2 {
		t.Fatalf("want the disjoint 2-hop path, got %v", out)
	}
}

// forAllPairs applies a policy to every unordered node pair (u < v) and
// returns tunnels indexed by pair position, along with the pair list.
func forAllPairs(g *graph.Graph, policy Policy) ([][2]int, [][]graph.Path) {
	n := g.NumNodes()
	var pairs [][2]int
	var paths [][]graph.Path
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			pairs = append(pairs, [2]int{u, v})
			paths = append(paths, policy(g, u, v))
		}
	}
	return pairs, paths
}

// hasCommonEdge reports whether some edge appears in every path.
func hasCommonEdge(paths []graph.Path) bool { return len(sharedEdges(paths)) > 0 }
