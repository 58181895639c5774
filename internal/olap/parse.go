// Package olap parses the /v2 query surface (DESIGN.md §12) into the
// core.Query values Cube.Answer executes; flowserve's /v2/query and the
// flowquery flags share it. The textual conventions are the v1 ones — cells
// as "dim=concept" pairs against the schema (core.ParseCellSpec) — extended
// with the operation, its axis or selectors, and the result-shaping options.
package olap

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"flowcube/internal/core"
)

// ParseQuery parses /v2/query URL parameters against the cube's schema:
//
//	op        cell (default) | rollup | drilldown | slice | dice
//	cell      "dim=concept,..." — the anchor cell; implies the cuboid's
//	          item level. Empty addresses the apex.
//	pathlevel path abstraction level index (default 0)
//	dim       dimension name rollup/drilldown moves along
//	select    "dim=concept,..." — slice/dice selectors; each names the
//	          sliced value and, for dimensions the cell leaves aggregated,
//	          implies the cuboid's level there
//	max       multi-cell result cap (default core.DefaultMaxCells)
//	nocompute "1"/"true" disables query-time reconstruction
//
// Structural validation beyond parsing (level existence, selector counts)
// is Cube.Answer's job; ParseQuery only rejects what cannot name anything.
func ParseQuery(cube *core.Cube, params url.Values) (core.Query, error) {
	var q core.Query
	switch op := params.Get("op"); op {
	case "", "cell":
		q.Op = core.OpCell
	case "rollup":
		q.Op = core.OpRollUp
	case "drilldown":
		q.Op = core.OpDrillDown
	case "slice":
		q.Op = core.OpSlice
	case "dice":
		q.Op = core.OpDice
	default:
		return core.Query{}, fmt.Errorf("unknown op %q, want cell|rollup|drilldown|slice|dice", op)
	}

	il, values, err := core.ParseCellSpec(cube.Schema, params.Get("cell"))
	if err != nil {
		return core.Query{}, fmt.Errorf("bad cell: %v", err)
	}
	q.Spec = core.CuboidSpec{Item: il}
	q.Values = values

	if pl := params.Get("pathlevel"); pl != "" {
		n, err := strconv.Atoi(pl)
		if err != nil || n < 0 {
			return core.Query{}, fmt.Errorf("bad pathlevel %q", pl)
		}
		q.Spec.PathLevel = n
	}

	switch q.Op {
	case core.OpRollUp, core.OpDrillDown:
		name := params.Get("dim")
		if name == "" {
			return core.Query{}, fmt.Errorf("op %s needs a dim parameter", q.Op)
		}
		d := cube.Schema.DimIndex(name)
		if d < 0 {
			return core.Query{}, fmt.Errorf("unknown dimension %q", name)
		}
		q.Dim = d
	}

	if sel := params.Get("select"); sel != "" {
		for _, pair := range strings.Split(sel, ",") {
			name, concept, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok {
				return core.Query{}, fmt.Errorf("bad selector %q, want dim=concept", pair)
			}
			d := cube.Schema.DimIndex(name)
			if d < 0 {
				return core.Query{}, fmt.Errorf("unknown dimension %q in selector", name)
			}
			id, found := cube.Schema.Dims[d].Lookup(concept)
			if !found {
				return core.Query{}, fmt.Errorf("unknown concept %q in dimension %q", concept, name)
			}
			level := cube.Schema.Dims[d].Level(id)
			switch q.Spec.Item[d] {
			case 0:
				// The cell left this dimension aggregated: the selector
				// implies the cuboid's level there.
				q.Spec.Item[d] = level
			case level:
			default:
				return core.Query{}, fmt.Errorf("selector %s=%s sits at level %d but the cell pins dimension %s at level %d",
					name, concept, level, name, q.Spec.Item[d])
			}
			q.Select = append(q.Select, core.Selector{Dim: d, Value: id})
		}
	}

	if m := params.Get("max"); m != "" {
		n, err := strconv.Atoi(m)
		if err != nil || n < 1 {
			return core.Query{}, fmt.Errorf("bad max %q", m)
		}
		q.MaxCells = n
	}
	switch params.Get("nocompute") {
	case "", "0", "false":
	case "1", "true":
		q.NoCompute = true
	default:
		return core.Query{}, fmt.Errorf("bad nocompute %q", params.Get("nocompute"))
	}
	return q, nil
}
