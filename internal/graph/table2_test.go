package graph_test

import (
	"testing"

	"flexile/internal/graph"
	"flexile/internal/topo"
)

// TestKShortestPathsTable2: on every pair of all 20 Table 2 topologies, at
// the two pool sizes the tunnel policies ask for (tunnels.PoolSize = 12
// and the low-priority class's 15), KShortestPaths returns the reference
// Yen's node and edge sequences in the reference's order. The reference
// runs once per pair, at 15: its first 12 paths are its answer at 12
// (TestKShortestPathsPrefix checks that for both implementations), and
// the second run would double the test's time. No Table 2 topology has
// parallel edges, so every pair runs the deviation-index skip.
//
// The topologies run as parallel subtests, each split into two parallel
// halves by the parity of the pair's first node: Deltacom alone takes
// most of the test's time.
func TestKShortestPathsTable2(t *testing.T) {
	for _, name := range topo.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			g := topo.MustLoad(name).G
			if graph.HasParallelEdges(g) {
				t.Fatal("parallel edges: KShortestPaths would run the full Yen loop here")
			}
			for first, half := range []string{"even", "odd"} {
				t.Run(half, func(t *testing.T) {
					t.Parallel()
					for u := first; u < g.NumNodes(); u += 2 {
						for v := u + 1; v < g.NumNodes(); v++ {
							want := graph.RefKShortestPaths(g, u, v, 15)
							for _, k := range []int{12, 15} {
								if ok, diff := graph.SamePaths(g.KShortestPaths(u, v, k), want[:min(k, len(want))]); !ok {
									t.Fatalf("%d-%d, k=%d: %s", u, v, k, diff)
								}
							}
						}
					}
				})
			}
		})
	}
}
