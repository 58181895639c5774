package core

import (
	"fmt"

	"flowcube/internal/hierarchy"
	"flowcube/internal/pathdb"
)

// Incremental maintenance. Because the duration and transition
// distributions of a flowgraph are algebraic measures (paper Lemma 4.2),
// new paths can be folded into a materialized cube without revisiting the
// path database: each affected cell's count and flowgraph update in place.
// Two caveats follow directly from the paper:
//
//   - the iceberg cell set is fixed at build time — a cell that was below
//     δ then is not created retroactively (rebuild to re-evaluate the
//     iceberg condition), and
//   - exceptions are holistic (Lemma 4.3) and become stale; the cube
//     tracks that and reports it via StaleExceptions.

// Append folds one record into every materialized cell it belongs to.
func (c *Cube) Append(r pathdb.Record) error {
	if len(r.Dims) != len(c.Schema.Dims) {
		return fmt.Errorf("core: record has %d dimension values, schema has %d",
			len(r.Dims), len(c.Schema.Dims))
	}
	if len(r.Path) == 0 {
		return fmt.Errorf("core: record has an empty path")
	}
	for i, v := range r.Dims {
		if int(v) < 0 || int(v) >= c.Schema.Dims[i].Len() {
			return fmt.Errorf("core: dimension %q value %d out of range",
				c.Schema.Dims[i].Dimension(), v)
		}
	}
	values := make([]hierarchy.NodeID, len(r.Dims))
	for key, cb := range c.Cuboids {
		cell := c.OwnedCell(key, cellKey(cb.Spec.Item.ValuesOf(c.Schema, r.Dims, values)))
		if cell == nil {
			continue
		}
		cell.Count++
		if cell.Graph != nil {
			cell.Graph.AddPath(r.Path)
		}
	}
	c.appended++
	return nil
}

// AppendAll folds a batch of records; it stops at the first invalid one.
func (c *Cube) AppendAll(records []pathdb.Record) error {
	for i, r := range records {
		if err := c.Append(r); err != nil {
			return fmt.Errorf("core: record %d: %w", i, err)
		}
	}
	return nil
}

// StaleExceptions reports how many records were appended since the cube's
// exceptions (and redundancy marks) were last computed. Non-zero means the
// holistic parts of the measure no longer reflect all data.
func (c *Cube) StaleExceptions() int64 { return c.appended }
