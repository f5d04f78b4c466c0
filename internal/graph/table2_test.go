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
// the second run would double the test's time.
func TestKShortestPathsTable2(t *testing.T) {
	for _, name := range topo.Names() {
		g := topo.MustLoad(name).G
		for u := 0; u < g.NumNodes(); u++ {
			for v := u + 1; v < g.NumNodes(); v++ {
				want := graph.RefKShortestPaths(g, u, v, 15)
				for _, k := range []int{12, 15} {
					if ok, diff := graph.SamePaths(g.KShortestPaths(u, v, k), want[:min(k, len(want))]); !ok {
						t.Fatalf("%s %d-%d, k=%d: %s", name, u, v, k, diff)
					}
				}
			}
		}
	}
}
