package core

import (
	"cmp"
	"fmt"
	"slices"

	"flowcube/internal/flowgraph"
	"flowcube/internal/hierarchy"
)

// Cube-level inspection helpers: invariant validation for defence in
// depth (after Load, ApplyDelta, or hand assembly) and a cube-wide ranking of
// mined exceptions for the analyst's "what is most unusual anywhere"
// question.

// Validate checks the cube's structural invariants: every cell's count is
// at least the iceberg threshold and matches its flowgraph's path count
// (adjusted for incremental appends), values fit the cuboid's item level,
// and every flowgraph passes its own validation. It returns the first
// violation.
func (c *Cube) Validate() error {
	// Walk cuboids and cells in sorted order so the *first* violation
	// reported is the same on every run — a nondeterministic error message
	// makes failures impossible to diff across reruns.
	for _, cb := range c.sortedCuboids() {
		if err := c.validateCuboid(cb); err != nil {
			return err
		}
	}
	return nil
}

// validateCuboid checks one cuboid's structural invariants. A mapped base
// decodes every cell here, so its decode failures surface as
// *CorruptSnapshotError instead of being swallowed like the error-less
// query paths must.
func (c *Cube) validateCuboid(cb *Cuboid) error {
	key := cb.Spec.Key()
	if len(cb.Spec.Item) != len(c.Schema.Dims) {
		return fmt.Errorf("core: cuboid %s item level arity %d != %d dims",
			key, len(cb.Spec.Item), len(c.Schema.Dims))
	}
	cells, err := cb.cells()
	if err != nil {
		return err
	}
	for _, cell := range cells {
		if cell.Count < c.minCount {
			return fmt.Errorf("core: cuboid %s holds cell %v below the iceberg threshold (%d < %d)",
				key, cell.Values, cell.Count, c.minCount)
		}
		for d, v := range cell.Values {
			lvl := cb.Spec.Item[d]
			if lvl == 0 {
				if v != hierarchy.Root {
					return fmt.Errorf("core: cuboid %s cell %v has a concrete value in a '*' dimension",
						key, cell.Values)
				}
				continue
			}
			if c.Schema.Dims[d].Level(v) != lvl {
				return fmt.Errorf("core: cuboid %s cell %v value %d not at level %d",
					key, cell.Values, v, lvl)
			}
		}
		if cell.Graph == nil {
			continue
		}
		if cell.Graph.Paths() != cell.Count {
			return fmt.Errorf("core: cuboid %s cell %v count %d != graph paths %d",
				key, cell.Values, cell.Count, cell.Graph.Paths())
		}
		if err := cell.Graph.Validate(); err != nil {
			return fmt.Errorf("core: cuboid %s cell %v: %w", key, cell.Values, err)
		}
	}
	return nil
}

// RankedException pairs an exception with the cell it was mined in.
type RankedException struct {
	Spec   CuboidSpec
	Values []hierarchy.NodeID
	flowgraph.Exception
}

// ExceptionSeverity is an exception's strongest deviation axis, the key
// TopExceptions ranks by.
func ExceptionSeverity(x flowgraph.Exception) float64 {
	if x.DurationDeviation > x.TransitionDeviation {
		return x.DurationDeviation
	}
	return x.TransitionDeviation
}

// CompareExceptions is TopExceptions' order: more severe first, then higher
// support; anything else ties, so a stable sort keeps the cube visit order.
// Severities are compared two-sided so no float equality test is needed:
// severities that differ only in rounding residue fall through to the
// support tiebreak instead of being ordered by noise. The cluster router
// merges per-shard lists with it to reproduce the single-node order.
func CompareExceptions(a, b flowgraph.Exception) int {
	sa, sb := ExceptionSeverity(a), ExceptionSeverity(b)
	switch {
	case sa > sb:
		return -1
	case sb > sa:
		return 1
	}
	return cmp.Compare(b.Support, a.Support)
}

// TopExceptions returns the k most severe exceptions across every
// materialized cell, ties broken deterministically by cell then support.
// k <= 0 returns all. The Node of each exception is a stub
// (flowgraph.FlatExceptions): the node's location, depth, count and
// durations, but no children.
func (c *Cube) TopExceptions(k int) []RankedException {
	// Base cells and decoded graphs read their exceptions from the flat
	// columns, in the order Graph.Exceptions lists them, so the stable sort
	// below ranks as a walk of thawed trees would, and thaws nothing.
	var out []RankedException
	for _, cb := range c.sortedCuboids() {
		err := cb.each(func(e *dirEntry, cell *Cell) error {
			var xs []flowgraph.Exception
			var err error
			switch {
			case cell == nil:
				xs, err = cb.base.exceptions(e)
			case cell.Graph != nil:
				if f := cell.Graph.Columns(); len(f.ExcNode) > 0 {
					xs, err = flowgraph.FlatExceptions(f, c.Schema.Location)
				}
			}
			for _, x := range xs {
				out = append(out, RankedException{Spec: cb.Spec, Values: e.values, Exception: x})
			}
			return err
		})
		if err != nil {
			return nil
		}
	}
	slices.SortStableFunc(out, func(a, b RankedException) int {
		return CompareExceptions(a.Exception, b.Exception)
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
