package core

import (
	"fmt"
	"sort"

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

// Severity orders exceptions by their strongest deviation axis.
func (r RankedException) Severity() float64 {
	if r.DurationDeviation > r.TransitionDeviation {
		return r.DurationDeviation
	}
	return r.TransitionDeviation
}

// TopExceptions returns the k most severe exceptions across every
// materialized cell, ties broken deterministically by cell then support.
// k <= 0 returns all.
func (c *Cube) TopExceptions(k int) []RankedException {
	// Base cells read their exceptions from the flat columns, in the order
	// the pointer-form graph lists them, so the stable sort below ranks a
	// lazily opened cube exactly as its eager twin.
	var out []RankedException
	for _, cb := range c.sortedCuboids() {
		err := cb.each(func(e *dirEntry, cell *Cell) error {
			var xs []flowgraph.Exception
			var err error
			switch {
			case cell == nil:
				xs, err = cb.base.exceptions(e)
			case cell.Graph != nil:
				xs = cell.Graph.Exceptions()
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
	sort.SliceStable(out, func(i, j int) bool {
		// Compared two-sided so no float equality test is needed: severities
		// that differ only in rounding residue fall through to the support
		// tiebreak instead of being ordered by noise.
		si, sj := out[i].Severity(), out[j].Severity()
		if si > sj {
			return true
		}
		if sj > si {
			return false
		}
		return out[i].Support > out[j].Support
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
