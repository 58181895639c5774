package cluster

import (
	"flowcube/internal/core"
	"flowcube/internal/hierarchy"
)

// Split carves a materialized cube into shards cubes along the rendezvous
// partitioning of cell keys: shard i holds exactly the cells it owns, with
// every cuboid still present (possibly empty) and the schema, plan, and
// thresholds replicated. The shards share cell pointers with the input
// (see core.Cube.FilterCells), so they are cheap to produce; they are for
// reading, and are served as they are.
//
// core.Merge over the result reproduces the original cube: split→merge→Save
// is byte-identical to Save of the input.
func Split(cube *core.Cube, shards int) ([]*core.Cube, error) {
	part, err := NewPartitioner(cube.Schema, shards)
	if err != nil {
		return nil, err
	}
	out := make([]*core.Cube, shards)
	for s := range out {
		shard := s
		out[s] = cube.FilterCells(func(values []hierarchy.NodeID) bool {
			return part.Owner(values) == shard
		})
	}
	return out, nil
}
