package graph

// The Table 2 oracle test imports topo, which imports graph, so it lives in
// package graph_test and reaches the reference Yen through these.
var (
	RefKShortestPaths = refKShortestPaths
	SamePaths         = samePaths
)

// HasParallelEdges reports whether g has two edges between one pair of
// nodes, the case in which KShortestPaths runs every spur index.
func HasParallelEdges(g *Graph) bool { return g.parallel }
