package cluster

import (
	"fmt"
	"os"
	"path/filepath"

	"flowcube/internal/core"
	"flowcube/internal/hierarchy"
)

// Split carves a materialized cube into shards cubes along the rendezvous
// partitioning of cell keys: shard i holds exactly the cells (and sub-δ
// ledger entries) it owns, with every cuboid still present (possibly empty)
// and the schema, plan, and thresholds replicated. The shards share cell
// pointers with the input (see core.Cube.FilterCells), so they are cheap to
// produce and must be treated as read-only alongside it — typically they
// are saved to per-shard snapshot files right away (WriteShards).
//
// Merge over the result reproduces the original cube: split→merge→Save is
// byte-identical to Save of the input.
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

// Merge reassembles shard cubes (as loaded from per-shard snapshots) into
// one cube; see core.Merge for the compatibility and disjointness rules.
func Merge(shards []*core.Cube) (*core.Cube, error) {
	return core.Merge(shards)
}

// ShardFileName names shard i of n inside a cluster snapshot directory.
func ShardFileName(i, n int) string {
	return fmt.Sprintf("shard-%d-of-%d.fcb", i, n)
}

// WriteShards splits cube into shards per-shard snapshots under dir
// (created if missing) and returns the written paths in shard order.
// Workers parallelizes each snapshot's cuboid encoding (it becomes each
// fresh shard cube's Config.Workers); the files are byte-deterministic
// regardless.
func WriteShards(cube *core.Cube, shards int, dir string, workers int) ([]string, error) {
	cubes, err := Split(cube, shards)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	paths := make([]string, len(cubes))
	for i, sc := range cubes {
		path := filepath.Join(dir, ShardFileName(i, shards))
		sc.Config.Workers = workers
		if err := sc.SaveFile(path); err != nil {
			return nil, err
		}
		paths[i] = path
	}
	return paths, nil
}

// ShardFilter returns a cube filter keeping only the cells shard index (of
// total) owns — the server-side ownership prune a shard applies after an
// append touches combinations it does not own (server.Config.PostAppend).
// The filter builds the partitioner from the cube's own schema, so it keeps
// working across reloads that change the schema shape.
func ShardFilter(index, total int) (func(*core.Cube) *core.Cube, error) {
	if total <= 0 {
		return nil, fmt.Errorf("cluster: shard count %d, want positive", total)
	}
	if index < 0 || index >= total {
		return nil, fmt.Errorf("cluster: shard index %d out of range [0,%d)", index, total)
	}
	return func(c *core.Cube) *core.Cube {
		part, err := NewPartitioner(c.Schema, total)
		if err != nil {
			// Unreachable: total was validated above and NewPartitioner has
			// no other failure mode. Serving an unfiltered cube is still
			// correct, just larger than necessary.
			return c
		}
		return c.FilterCells(func(values []hierarchy.NodeID) bool {
			return part.Owner(values) == index
		})
	}, nil
}
