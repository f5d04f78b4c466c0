package graph

// The Table 2 oracle test imports topo, which imports graph, so it lives in
// package graph_test and reaches the reference Yen through these.
var (
	RefKShortestPaths = refKShortestPaths
	SamePaths         = samePaths
)
