package flowgraph

import "flowcube/internal/pathdb"

// Level returns the path abstraction level the graph aggregates paths to.
func (g *Graph) Level() pathdb.PathLevel { return g.level }
