package graph

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// triangle builds A-B, A-C, B-C with unit capacity.
func triangle() *Graph {
	g := New(3)
	g.AddEdge(0, 1, 1) // e0: A-B
	g.AddEdge(0, 2, 1) // e1: A-C
	g.AddEdge(1, 2, 1) // e2: B-C
	return g
}

// reaches reports whether ShortestPath finds a u-v path under alive.
func reaches(g *Graph, u, v int, alive func(edge int) bool) bool {
	_, ok := g.ShortestPath(u, v, alive)
	return ok
}

func TestConnectivity(t *testing.T) {
	g := triangle()
	if !reaches(g, 0, 2, nil) {
		t.Fatal("triangle should be connected")
	}
	// Fail A-C and B-C: A cannot reach C.
	alive := func(e int) bool { return e == 0 }
	if reaches(g, 0, 2, alive) {
		t.Fatal("A should not reach C with only A-B alive")
	}
	if !reaches(g, 0, 1, alive) {
		t.Fatal("A should reach B over the alive edge")
	}
}

func TestIsConnected(t *testing.T) {
	g := triangle()
	for v := 1; v < g.NumNodes(); v++ {
		if !reaches(g, 0, v, nil) {
			t.Fatalf("triangle connected, but A does not reach %d", v)
		}
	}
	if reaches(g, 0, 1, func(e int) bool { return e == 2 }) {
		t.Fatal("only B-C alive disconnects A")
	}
}

func TestShortestPathHops(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(0, 3, 1)
	p, ok := g.ShortestPath(0, 2, nil)
	if !ok || p.Len() != 2 {
		t.Fatalf("path=%v ok=%v", p, ok)
	}
	if p.Nodes[0] != 0 || p.Nodes[len(p.Nodes)-1] != 2 {
		t.Fatalf("endpoints wrong: %v", p.Nodes)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	if _, ok := g.ShortestPath(0, 2, nil); ok {
		t.Fatal("node 2 is isolated")
	}
}

func TestKShortestPathsTriangle(t *testing.T) {
	g := triangle()
	paths := g.KShortestPaths(0, 1, 3)
	if len(paths) != 2 {
		t.Fatalf("triangle has exactly 2 loopless A→B paths, got %d", len(paths))
	}
	if paths[0].Len() != 1 || paths[1].Len() != 2 {
		t.Fatalf("paths out of order: %v", paths)
	}
}

func TestKShortestPathsGrid(t *testing.T) {
	// 2x3 grid: 0-1-2 / 3-4-5 with verticals.
	g := New(6)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(3, 4, 1)
	g.AddEdge(4, 5, 1)
	g.AddEdge(0, 3, 1)
	g.AddEdge(1, 4, 1)
	g.AddEdge(2, 5, 1)
	paths := g.KShortestPaths(0, 5, 4)
	if len(paths) < 3 {
		t.Fatalf("expected ≥3 paths, got %d", len(paths))
	}
	for i := 1; i < len(paths); i++ {
		ci := cost(paths[i])
		cp := cost(paths[i-1])
		if ci < cp {
			t.Fatalf("paths not sorted: %v then %v", cp, ci)
		}
	}
	// All paths must be loopless and valid.
	for _, p := range paths {
		seen := map[int]bool{}
		for _, n := range p.Nodes {
			if seen[n] {
				t.Fatalf("loop in path %v", p.Nodes)
			}
			seen[n] = true
		}
		validatePath(t, g, p, 0, 5)
	}
	// All paths distinct.
	for i := range paths {
		for j := i + 1; j < len(paths); j++ {
			if paths[i].Equal(paths[j]) {
				t.Fatalf("duplicate paths %d and %d", i, j)
			}
		}
	}
}

func cost(p Path) int { return p.Len() }

func validatePath(t *testing.T, g *Graph, p Path, src, dst int) {
	t.Helper()
	if p.Nodes[0] != src || p.Nodes[len(p.Nodes)-1] != dst {
		t.Fatalf("endpoints: %v", p.Nodes)
	}
	if len(p.Nodes) != len(p.Edges)+1 {
		t.Fatalf("length mismatch: %d nodes %d edges", len(p.Nodes), len(p.Edges))
	}
	for i, e := range p.Edges {
		ed := g.Edge(e)
		a, b := p.Nodes[i], p.Nodes[i+1]
		if !(ed.A == a && ed.B == b) && !(ed.A == b && ed.B == a) {
			t.Fatalf("edge %d does not connect %d-%d", e, a, b)
		}
	}
}

// Property: on random graphs, Yen's first path equals Dijkstra and every
// returned path is simple, valid, and sorted by cost.
func TestKShortestPathsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(8)
		g := New(n)
		for i := 1; i < n; i++ {
			g.AddEdge(i, rng.Intn(i), 1) // random spanning tree
		}
		extra := rng.Intn(2 * n)
		for i := 0; i < extra; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				g.AddEdge(a, b, 1)
			}
		}
		u, v := 0, n-1
		paths := g.KShortestPaths(u, v, 5)
		if len(paths) == 0 {
			t.Fatalf("trial %d: spanning tree guarantees a path", trial)
		}
		sp, _ := g.ShortestPath(u, v, nil)
		if paths[0].Len() != sp.Len() {
			t.Fatalf("trial %d: first Yen path length %d != Dijkstra %d", trial, paths[0].Len(), sp.Len())
		}
		for i, p := range paths {
			validatePath(t, g, p, u, v)
			seen := map[int]bool{}
			for _, nn := range p.Nodes {
				if seen[nn] {
					t.Fatalf("trial %d: path %d has a loop", trial, i)
				}
				seen[nn] = true
			}
			if i > 0 && p.Len() < paths[i-1].Len() {
				t.Fatalf("trial %d: unsorted", trial)
			}
		}
	}
}

func TestBridges(t *testing.T) {
	// Two triangles joined by a single edge (the bridge).
	g := New(6)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 0, 1)
	br := g.AddEdge(2, 3, 1)
	g.AddEdge(3, 4, 1)
	g.AddEdge(4, 5, 1)
	g.AddEdge(5, 3, 1)
	bridges := g.Bridges()
	if len(bridges) != 1 || bridges[0] != br {
		t.Fatalf("bridges = %v, want [%d]", bridges, br)
	}
}

func TestBridgesParallelEdges(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 1, 1)
	if got := g.Bridges(); len(got) != 0 {
		t.Fatalf("parallel edges are not bridges: %v", got)
	}
}

func TestBridgesTree(t *testing.T) {
	g := New(4)
	e1 := g.AddEdge(0, 1, 1)
	e2 := g.AddEdge(1, 2, 1)
	e3 := g.AddEdge(1, 3, 1)
	got := g.Bridges()
	want := []int{e1, e2, e3}
	sort.Ints(got)
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("bridges = %v, want %v", got, want)
	}
}

func TestPathHelpers(t *testing.T) {
	g := triangle()
	p, _ := g.ShortestPath(0, 2, nil)
	if !p.Alive(func(int) bool { return true }) {
		t.Fatal("Alive with all edges up")
	}
	if p.Alive(func(e int) bool { return e != p.Edges[0] }) {
		t.Fatal("Alive with a dead edge on the path")
	}
	if !p.Equal(p) || p.Equal(Path{Edges: []int{99}}) {
		t.Fatal("Equal")
	}
}

func BenchmarkKShortestPaths(b *testing.B) {
	tp := testGraphIBM()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := tp.KShortestPaths(0, tp.NumNodes()-1, 6); len(got) == 0 {
			b.Fatal("no paths")
		}
	}
}

func BenchmarkMaxFlow(b *testing.B) {
	tp := testGraphIBM()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp.MaxFlow(0, tp.NumNodes()-1, nil)
	}
}

// samePaths reports whether two path lists have the same node and edge
// sequences in the same order, and describes the first difference.
func samePaths(got, want []Path) (bool, string) {
	if len(got) != len(want) {
		return false, fmt.Sprintf("%d paths, want %d", len(got), len(want))
	}
	for i := range got {
		if !sameInts(got[i].Nodes, want[i].Nodes) || !sameInts(got[i].Edges, want[i].Edges) {
			return false, fmt.Sprintf("path %d is %v%v, want %v%v", i, got[i].Nodes, got[i].Edges, want[i].Nodes, want[i].Edges)
		}
	}
	return true, ""
}

// randomMultigraph builds a graph with parallel edges and bridges: each
// component is a random spanning tree (every edge a bridge until a later
// edge closes a cycle over it) plus extra edges, a third of which
// duplicate an existing link. One graph in four has two components, so
// some pairs are disconnected.
func randomMultigraph(rng *rand.Rand) *Graph { return randomGraph(rng, true) }

// randomSimpleGraph is randomMultigraph without parallel edges: no extra
// edge duplicates a link, and one that would join two linked nodes is
// dropped.
func randomSimpleGraph(rng *rand.Rand) *Graph { return randomGraph(rng, false) }

func randomGraph(rng *rand.Rand, parallel bool) *Graph {
	n := 4 + rng.Intn(12)
	g := New(n)
	split := n
	if rng.Intn(4) == 0 {
		split = 2 + rng.Intn(n-3)
	}
	linked := func(a, b int) bool {
		for _, h := range g.adj[a] {
			if h.to == b {
				return true
			}
		}
		return false
	}
	for _, c := range [][2]int{{0, split}, {split, n}} {
		lo, size := c[0], c[1]-c[0]
		if size == 0 {
			continue
		}
		for i := 1; i < size; i++ {
			g.AddEdge(lo+i, lo+rng.Intn(i), 1)
		}
		for extra := rng.Intn(2 * size); extra > 0; extra-- {
			if parallel && g.NumEdges() > 0 && rng.Intn(3) == 0 {
				e := g.Edge(rng.Intn(g.NumEdges()))
				g.AddEdge(e.A, e.B, 1)
				continue
			}
			if a, b := lo+rng.Intn(size), lo+rng.Intn(size); a != b && (parallel || !linked(a, b)) {
				g.AddEdge(a, b, 1)
			}
		}
	}
	return g
}

// TestKShortestPathsMatchesReference: on random multigraphs, for every
// ordered pair (disconnected ones included) and several k, KShortestPaths
// returns the reference Yen's paths in the reference's order, and
// ShortestPath under a random failure set returns the reference
// Dijkstra's path.
func TestKShortestPathsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 60; trial++ {
		g := randomMultigraph(rng)
		dead := make([]bool, g.NumEdges())
		for e := range dead {
			dead[e] = rng.Intn(4) == 0
		}
		alive := func(e int) bool { return !dead[e] }
		for u := 0; u < g.NumNodes(); u++ {
			for v := 0; v < g.NumNodes(); v++ {
				if u == v {
					continue
				}
				for _, k := range []int{1, 3, 12, 15} {
					if ok, diff := samePaths(g.KShortestPaths(u, v, k), refKShortestPaths(g, u, v, k)); !ok {
						t.Fatalf("trial %d, %d-%d, k=%d: %s", trial, u, v, k, diff)
					}
				}
				got, gotOK := g.ShortestPath(u, v, alive)
				want, wantOK := refShortestPath(g, u, v, nil, alive, nil)
				if ok, diff := samePaths([]Path{got}, []Path{want}); gotOK != wantOK || !ok {
					t.Fatalf("trial %d, %d-%d under failures: found %v, want %v; %s", trial, u, v, gotOK, wantOK, diff)
				}
			}
		}
	}
}

// TestKShortestPathsSimpleMatchesReference: on random graphs without
// parallel edges, where each Yen round starts at the last path's deviation
// index, KShortestPaths returns the reference Yen's paths in the
// reference's order for every ordered pair (disconnected ones included)
// and several k.
func TestKShortestPathsSimpleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 60; trial++ {
		g := randomSimpleGraph(rng)
		if g.parallel {
			t.Fatalf("trial %d: the simple graph has parallel edges", trial)
		}
		for u := 0; u < g.NumNodes(); u++ {
			for v := 0; v < g.NumNodes(); v++ {
				if u == v {
					continue
				}
				for _, k := range []int{1, 3, 12, 15} {
					if ok, diff := samePaths(g.KShortestPaths(u, v, k), refKShortestPaths(g, u, v, k)); !ok {
						t.Fatalf("trial %d, %d-%d, k=%d: %s", trial, u, v, k, diff)
					}
				}
			}
		}
	}
}

// TestKShortestPathsMultigraphFullLoop: a multigraph runs every spur index
// of every round. On this one (links 1-4 and 5-6 are doubled or tripled),
// a round started at the deviation index would skip a spur whose root has
// the same nodes as an earlier search's but other edges, and return the
// paths in another order than the reference.
func TestKShortestPathsMultigraphFullLoop(t *testing.T) {
	g := New(7)
	for _, e := range [][2]int{{1, 0}, {2, 1}, {3, 0}, {4, 1}, {5, 4}, {6, 5}, {4, 1}, {4, 0}, {4, 1}, {4, 5}, {6, 5}, {2, 3}} {
		g.AddEdge(e[0], e[1], 1)
	}
	if !g.parallel {
		t.Fatal("parallel edges not detected")
	}
	want := refKShortestPaths(g, 6, 3, 15)
	if ok, diff := samePaths(g.KShortestPaths(6, 3, 15), want); !ok {
		t.Fatalf("full loop: %s", diff)
	}
	g.parallel = false
	if ok, _ := samePaths(g.KShortestPaths(6, 3, 15), want); ok {
		t.Fatal("the deviation-index skip also matches here, so this graph does not show why multigraphs keep the full loop")
	}
}

// TestKShortestPathsPrefix: the first k paths do not depend on how many
// more are asked for, in KShortestPaths and in the reference alike.
// tunnels.LowPriority takes its high-priority pool from a longer one on
// the strength of it.
func TestKShortestPathsPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 30; trial++ {
		g := randomMultigraph(rng)
		u, v := 0, g.NumNodes()-1
		long, refLong := g.KShortestPaths(u, v, 15), refKShortestPaths(g, u, v, 15)
		for k := 0; k <= 15; k++ {
			if ok, diff := samePaths(g.KShortestPaths(u, v, k), long[:min(k, len(long))]); !ok {
				t.Fatalf("trial %d, k=%d: %s", trial, k, diff)
			}
			if ok, diff := samePaths(refKShortestPaths(g, u, v, k), refLong[:min(k, len(refLong))]); !ok {
				t.Fatalf("trial %d, k=%d, reference: %s", trial, k, diff)
			}
		}
	}
}

// TestKShortestPathsAllocs: a spur search allocates nothing, so a call
// allocates its workspace, the paths it keeps as candidates, and the
// slices and sorts around them — not one Dijkstra's buffers per spur.
func TestKShortestPathsAllocs(t *testing.T) {
	g := testGraphIBM()
	u, v := 0, g.NumNodes()-1
	ref := testing.AllocsPerRun(5, func() { refKShortestPaths(g, u, v, 12) })
	got := testing.AllocsPerRun(5, func() { g.KShortestPaths(u, v, 12) })
	t.Logf("allocations per call: %.0f (reference %.0f)", got, ref)
	if got*4 > ref {
		t.Fatalf("KShortestPaths allocates %.0f times per call, more than a quarter of the reference's %.0f", got, ref)
	}
}
