package core

// The v2 query surface: one Query value describing an OLAP operation over
// the cuboid lattice, answered by Cube.Answer with typed provenance. A cell
// that was never materialized — outside the build's cuboid list, or dropped
// since — is reconstructed exactly at query time by folding the flowgraphs
// of a materialized descendant cuboid whose matching cells partition the
// target cell's paths (flowgraph.Fold;
// paper Lemma 4.2). Exactness is certified per cell: the folded counts must
// sum to the cell's census count from a materialized cuboid at the same
// item level, so a fold over an iceberg-truncated descendant (some sub-δ
// children missing) is refused rather than silently wrong, and the answer
// falls back to the nearest materialized ancestor. The plan is written once,
// over a CellSource: /v1/cell, /v2/query and the cluster router all run it.
// See DESIGN.md §12.

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"flowcube/internal/flowgraph"
	"flowcube/internal/hierarchy"
)

// Op is the OLAP operation a Query performs.
type Op int

const (
	// OpCell answers one cell of one cuboid.
	OpCell Op = iota
	// OpRollUp answers the cell's parent along Query.Dim: the same cell
	// with that dimension generalized one materialized level (or to '*').
	OpRollUp
	// OpDrillDown answers the children of the cell along Query.Dim: every
	// cell one materialized level finer that generalizes back to it.
	OpDrillDown
	// OpSlice answers every cell of the cuboid matching the single
	// Query.Select entry.
	OpSlice
	// OpDice answers every cell of the cuboid matching all Query.Select
	// entries.
	OpDice
)

// String returns the wire name used by /v2/query's op parameter.
func (op Op) String() string {
	switch op {
	case OpCell:
		return "cell"
	case OpRollUp:
		return "rollup"
	case OpDrillDown:
		return "drilldown"
	case OpSlice:
		return "slice"
	case OpDice:
		return "dice"
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// Selector restricts one dimension to one concept for OpSlice and OpDice.
// The concept must live at the queried cuboid's item level for that
// dimension.
type Selector struct {
	Dim   int
	Value hierarchy.NodeID
}

// Query describes one OLAP operation: the cuboid, the anchor cell, the
// operation, and its options. The zero Op is OpCell, so the minimal query is
// a spec and values.
type Query struct {
	// Op selects the operation.
	Op Op
	// Spec is the queried cuboid ⟨Il, Pl⟩.
	Spec CuboidSpec
	// Values anchors the operation: the queried cell for OpCell, the cell
	// to generalize for OpRollUp, the cell to refine for OpDrillDown.
	// Unused by OpSlice and OpDice.
	Values []hierarchy.NodeID
	// Dim is the dimension OpRollUp and OpDrillDown move along.
	Dim int
	// Select restricts OpSlice (exactly one entry) and OpDice (one or
	// more).
	Select []Selector
	// MaxCells caps multi-cell results (OpDrillDown, OpSlice, OpDice);
	// 0 means DefaultMaxCells. Answer.Truncated reports a hit cap.
	MaxCells int
	// NoCompute disables query-time reconstruction: only materialized
	// cells (and materialized ancestors) answer, the pre-v2 behavior.
	NoCompute bool
}

// DefaultMaxCells bounds multi-cell answers when Query.MaxCells is 0.
const DefaultMaxCells = 256

// Provenance says how a cell was answered.
type Provenance int

const (
	// Materialized: the requested cell itself was materialized,
	// non-redundant, and answered directly.
	Materialized Provenance = iota
	// AncestorFallback: the requested cell was absent (compressed away or
	// below the iceberg threshold) and the nearest materialized — or
	// reconstructable — item-lattice ancestor answered. Not exact.
	AncestorFallback
	// ComputedFromDescendants: the requested cell's cuboid is not
	// materialized and the cell was reconstructed exactly by folding the
	// listed descendant cells.
	ComputedFromDescendants
)

// String returns the wire name used in /v2/query responses.
func (p Provenance) String() string {
	switch p {
	case Materialized:
		return "materialized"
	case AncestorFallback:
		return "ancestor"
	case ComputedFromDescendants:
		return "computed"
	}
	return fmt.Sprintf("provenance(%d)", int(p))
}

// CellAnswer is one answered cell.
type CellAnswer struct {
	// Spec and Values identify the requested (for OpCell) or enumerated
	// (for multi-cell ops) cell, which Graph measures when Exact.
	Spec   CuboidSpec
	Values []hierarchy.NodeID
	// Provenance says how the cell was answered; Exact reports whether
	// Graph measures the requested cell itself rather than an ancestor.
	Provenance Provenance
	Exact      bool
	// SourceSpec and Source are the cell that answered: the cell itself
	// when Materialized, a reconstruction when computed, an ancestor's
	// cell on fallback.
	SourceSpec CuboidSpec
	Source     *Cell
	// Folded lists the descendant cells folded into a computed answer
	// (also set when an ancestor was itself reconstructed).
	Folded []CellRef
	// Graph is the answering flowgraph.
	Graph *flowgraph.Graph
}

// Answer is the result of one Query.
type Answer struct {
	// Query echoes the request.
	Query Query
	// Cells holds the answered cells: exactly one for OpCell and OpRollUp,
	// zero or more for the multi-cell ops, in CompareCells order.
	Cells []CellAnswer
	// Truncated reports that a multi-cell op hit Query.MaxCells.
	Truncated bool
	// Skipped counts enumerated cells no materialized or computable source
	// could answer (multi-cell ops only).
	Skipped int
}

// ErrNotComputable is wrapped by ReconstructCell when no materialized
// descendant cuboid certifiably partitions the requested cell. Test with
// errors.Is.
var ErrNotComputable = errors.New("core: cell not computable from materialized descendants")

// CellSource is the planner's only view of stored cells. It has exactly two
// implementations: *Cube itself (eager and lazily loaded cubes alike) and
// the cluster router's request-scoped remote source,
// which fetches from the shards that own the cells (internal/cluster). The
// methods return no errors; a source that can fail — a lazy cell that
// does not decode, an unreachable shard — reports absence and keeps a sticky
// error its caller checks once the plan has run (Cube.LazyErr).
type CellSource interface {
	// Lookup returns the cell (nil when absent) and whether its cuboid is
	// materialized at all: absence from a materialized cuboid means sub-δ or
	// compressed away, absence of the whole cuboid means reconstructable.
	Lookup(spec CuboidSpec, values []hierarchy.NodeID) (cell *Cell, materialized bool)
	// Census returns the cell's exact path count from a materialized
	// cuboid sharing its item level at another path level.
	Census(spec CuboidSpec, values []hierarchy.NodeID) (int64, bool)
	// MaterializedSpecs lists the materialized cuboids in ascending key
	// order.
	MaterializedSpecs() []CuboidSpec
	// FoldSources returns, in CompareCells order, the cells of the
	// materialized cuboid ds that generalize to the cell.
	FoldSources(ds, spec CuboidSpec, values []hierarchy.NodeID) []*Cell
}

// planner answers cells of one query: the cube supplies the schema, the
// level ladders and τ; every cell comes from src.
type planner struct {
	c   *Cube
	src CellSource
}

// Answer executes one OLAP query against the cube. It is a pure read, safe
// under concurrent readers, and works on eager, partially materialized,
// pruned, and lazily loaded cubes alike; ctx is checked between lattice
// probes, so scatter handlers can abandon an expensive reconstruction.
//
// OpCell and OpRollUp return exactly one cell or an error wrapping
// ErrCellNotFound. The multi-cell ops skip unanswerable cells (counted in
// Answer.Skipped) and never error on an empty result.
func (c *Cube) Answer(ctx context.Context, q Query) (*Answer, error) {
	return c.AnswerFrom(ctx, c, q)
}

// AnswerFrom is Answer with the cells read through src: the same plan —
// the cell, else its reconstruction, else the nearest ancestor — whatever
// holds the cells. c needs only metadata (core.LoadMeta). The multi-cell
// ops enumerate their candidates from c's own cuboids, so over a source
// other than c only OpCell and OpRollUp find anything.
func (c *Cube) AnswerFrom(ctx context.Context, src CellSource, q Query) (*Answer, error) {
	if err := c.validateQuery(&q); err != nil {
		return nil, err
	}
	p := &planner{c: c, src: src}
	out := &Answer{Query: q}
	switch q.Op {
	case OpCell:
		ca, err := p.answerCell(ctx, q.Spec, q.Values, q.NoCompute)
		if err != nil {
			return nil, err
		}
		out.Cells = []CellAnswer{ca}
	case OpRollUp:
		spec, values, err := c.RollUpRef(q.Spec, q.Values, q.Dim)
		if err != nil {
			return nil, err
		}
		ca, err := p.answerCell(ctx, spec, values, q.NoCompute)
		if err != nil {
			return nil, err
		}
		out.Cells = []CellAnswer{ca}
	case OpDrillDown:
		spec, err := c.drillDownSpec(q.Spec, q.Dim)
		if err != nil {
			return nil, err
		}
		candidates, _ := c.enumerateCellValues(spec)
		var keep [][]hierarchy.NodeID // fresh: never filter into the enumeration's backing array
		up := make([]hierarchy.NodeID, len(q.Values))
		for _, v := range candidates {
			if slices.Equal(c.generalize(up, spec.Item, q.Spec.Item, v), q.Values) {
				keep = append(keep, v)
			}
		}
		if err := p.answerCells(ctx, out, spec, keep); err != nil {
			return nil, err
		}
	case OpSlice, OpDice:
		candidates, _ := c.enumerateCellValues(q.Spec)
		var keep [][]hierarchy.NodeID
		for _, v := range candidates {
			match := true
			for _, sel := range q.Select {
				if v[sel.Dim] != sel.Value {
					match = false
					break
				}
			}
			if match {
				keep = append(keep, v)
			}
		}
		if err := p.answerCells(ctx, out, q.Spec, keep); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ReconstructCell computes the cell eager Build would have materialized for
// a non-materialized cuboid, by folding the matching cells of the nearest
// materialized descendant cuboid whose counts sum to the cell's census
// count. On success the returned cell carries the exact count, the folded
// flowgraph, and — when the cube marks redundancy — the similarity and
// redundancy marking recomputed against its lattice parents; the CellRefs
// name the folded descendants. Exceptions are holistic (Lemma 4.3): the
// cell carries none, whatever a build would have mined for it. Unlike
// Answer it applies no redundant-cell preference, so tests digest-compare
// every reconstructed cell against its eager twin.
func (c *Cube) ReconstructCell(ctx context.Context, spec CuboidSpec, values []hierarchy.NodeID) (*Cell, []CellRef, error) {
	return (&planner{c: c, src: c}).reconstructCell(ctx, spec, values, 0)
}

// validateQuery checks structure and defaults MaxCells.
func (c *Cube) validateQuery(q *Query) error {
	dims := len(c.Schema.Dims)
	if len(q.Spec.Item) != dims {
		return fmt.Errorf("core: query: item level has %d dimensions, schema has %d", len(q.Spec.Item), dims)
	}
	// Item levels outside the plan's ladders are allowed: such a cuboid has
	// no materialized twin for a census (so reconstruction is refused) and no
	// descendants, and the cell answers from its nearest materialized
	// ancestor or not at all.
	if pl := len(c.PathLevels()); q.Spec.PathLevel < 0 || q.Spec.PathLevel >= pl {
		return fmt.Errorf("core: query: path level %d outside plan (have %d)", q.Spec.PathLevel, pl)
	}
	switch q.Op {
	case OpCell, OpRollUp, OpDrillDown:
		if len(q.Values) != dims {
			return fmt.Errorf("core: query: cell has %d values, schema has %d dimensions", len(q.Values), dims)
		}
	}
	switch q.Op {
	case OpRollUp, OpDrillDown:
		if q.Dim < 0 || q.Dim >= dims {
			return fmt.Errorf("core: query: dimension %d outside schema (have %d)", q.Dim, dims)
		}
	case OpSlice:
		if len(q.Select) != 1 {
			return fmt.Errorf("core: query: slice needs exactly one selector, got %d", len(q.Select))
		}
	case OpDice:
		if len(q.Select) == 0 {
			return fmt.Errorf("core: query: dice needs at least one selector")
		}
	}
	for _, sel := range q.Select {
		if sel.Dim < 0 || sel.Dim >= dims {
			return fmt.Errorf("core: query: selector dimension %d outside schema (have %d)", sel.Dim, dims)
		}
	}
	if q.MaxCells <= 0 {
		q.MaxCells = DefaultMaxCells
	}
	return nil
}

// RollUpRef generalizes one cell one materialized level along dim: the
// same values with that dimension lifted to the previous level of its
// materialized ladder (or to '*'). It is pure schema navigation — the
// target need not be materialized — so metadata-only cubes (core.LoadMeta)
// can use it too.
func (c *Cube) RollUpRef(spec CuboidSpec, values []hierarchy.NodeID, dim int) (CuboidSpec, []hierarchy.NodeID, error) {
	if spec.Item[dim] == 0 {
		return CuboidSpec{}, nil, fmt.Errorf("core: query: dimension %s is already aggregated to '*'", c.Schema.Dims[dim].Dimension())
	}
	pItem := c.rollUpLevel(spec.Item, dim)
	pSpec := CuboidSpec{Item: pItem, PathLevel: spec.PathLevel}
	return pSpec, c.GeneralizeValues(spec.Item, pItem, values), nil
}

// rollUpLevel returns a new item level: il with dimension dim, not at '*',
// rolled up to the next coarser materialized level.
func (c *Cube) rollUpLevel(il ItemLevel, dim int) ItemLevel {
	prev := 0
	for _, ml := range c.DimLevels()[dim] {
		if ml >= il[dim] {
			break
		}
		prev = ml
	}
	up := append(ItemLevel(nil), il...)
	up[dim] = prev
	return up
}

// drillDownSpec refines the cuboid one materialized level along dim.
func (c *Cube) drillDownSpec(spec CuboidSpec, dim int) (CuboidSpec, error) {
	ladder := c.DimLevels()[dim]
	cur := spec.Item[dim]
	next := -1
	if cur == 0 {
		if len(ladder) > 0 {
			next = ladder[0]
		}
	} else {
		for i, ml := range ladder {
			if ml == cur && i+1 < len(ladder) {
				next = ladder[i+1]
			}
		}
	}
	if next < 0 {
		return CuboidSpec{}, fmt.Errorf("core: query: dimension %s is already at its finest materialized level", c.Schema.Dims[dim].Dimension())
	}
	nItem := append(ItemLevel(nil), spec.Item...)
	nItem[dim] = next
	return CuboidSpec{Item: nItem, PathLevel: spec.PathLevel}, nil
}

// answerCells answers each enumerated cell of one cuboid, skipping misses
// and honoring the cap.
func (p *planner) answerCells(ctx context.Context, out *Answer, spec CuboidSpec, values [][]hierarchy.NodeID) error {
	for _, v := range values {
		if len(out.Cells) >= out.Query.MaxCells {
			out.Truncated = true
			return nil
		}
		ca, err := p.answerCell(ctx, spec, v, out.Query.NoCompute)
		if err != nil {
			if errors.Is(err, ErrCellNotFound) {
				out.Skipped++
				continue
			}
			return err
		}
		out.Cells = append(out.Cells, ca)
	}
	return nil
}

// answerCell resolves one cell: the cell itself when probe finds it, else
// the nearest ancestor probe finds, breadth-first up the item lattice in
// parentRefs order.
func (p *planner) answerCell(ctx context.Context, spec CuboidSpec, values []hierarchy.NodeID, noCompute bool) (CellAnswer, error) {
	if err := ctx.Err(); err != nil {
		return CellAnswer{}, err
	}
	cell, folded, ok, err := p.probe(ctx, spec, values, !noCompute)
	if err != nil {
		return CellAnswer{}, err
	}
	if ok {
		provenance := Materialized
		if folded != nil {
			provenance = ComputedFromDescendants
		}
		return CellAnswer{
			Spec: spec, Values: values,
			Provenance: provenance, Exact: true,
			SourceSpec: spec, Source: cell, Folded: folded, Graph: cell.Graph,
		}, nil
	}
	frontier := []CellRef{{Spec: spec, Values: values}}
	seen := map[CellRefKey]bool{{spec.Key(), MakeCellID(values)}: true}
	for len(frontier) > 0 {
		if err := ctx.Err(); err != nil {
			return CellAnswer{}, err
		}
		var next []CellRef
		for _, r := range frontier {
			for _, pr := range p.c.parentRefs(r.Spec, r.Values) {
				k := CellRefKey{pr.Spec.Key(), MakeCellID(pr.Values)}
				if seen[k] {
					continue
				}
				seen[k] = true
				cell, folded, ok, err := p.probe(ctx, pr.Spec, pr.Values, !noCompute)
				if err != nil {
					return CellAnswer{}, err
				}
				if ok {
					return CellAnswer{
						Spec: spec, Values: values,
						Provenance: AncestorFallback, Exact: false,
						SourceSpec: pr.Spec, Source: cell, Folded: folded, Graph: cell.Graph,
					}, nil
				}
				next = append(next, pr)
			}
		}
		frontier = next
	}
	return CellAnswer{}, fmt.Errorf("%w: cuboid %s cell %s (no materialized ancestor either)",
		ErrCellNotFound, spec.Key(), formatCell(values))
}

// probe asks one lattice position for a usable cell: the materialized cell
// when it carries a flowgraph and is not redundant, else — only when the
// whole cuboid is absent; on a materialized cuboid the cell's absence means
// sub-δ or compressed, and the ancestor rule applies — its reconstruction,
// whose folded sources are returned with it. A reconstructed-but-redundant
// cell follows the same inference rule as a materialized one: ok is false
// and the parent answers.
func (p *planner) probe(ctx context.Context, spec CuboidSpec, values []hierarchy.NodeID, compute bool) (*Cell, []CellRef, bool, error) {
	cell, materialized := p.src.Lookup(spec, values)
	if cell != nil && cell.Graph != nil && !cell.Redundant {
		return cell, nil, true, nil
	}
	if !compute || materialized {
		return nil, nil, false, nil
	}
	cell, folded, err := p.reconstructCell(ctx, spec, values, 0)
	if errors.Is(err, ErrNotComputable) {
		return nil, nil, false, nil
	}
	if err != nil || cell.Redundant {
		return nil, nil, false, err
	}
	return cell, folded, true, nil
}

// reconstructCell is ReconstructCell's body. depth > 0 marks a recursive
// parent reconstruction made only for a similarity comparison: such cells
// need their graph, not their own redundancy marking (and the recursion
// stays bounded — parents are strictly coarser).
func (p *planner) reconstructCell(ctx context.Context, spec CuboidSpec, values []hierarchy.NodeID, depth int) (*Cell, []CellRef, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	census, ok := p.src.Census(spec, values)
	if !ok {
		return nil, nil, fmt.Errorf("%w: cuboid %s cell %s: no materialized cuboid shares item level %s for the census count",
			ErrNotComputable, spec.Key(), formatCell(values), spec.Item.Key())
	}
	for _, ds := range p.c.descendantSpecs(p.src.MaterializedSpecs(), spec) {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		var sum int64
		var graphs []*flowgraph.Graph
		var folded []CellRef
		usable := true
		for _, cell := range p.src.FoldSources(ds, spec, values) {
			if cell.Graph == nil {
				usable = false
				break
			}
			sum += cell.Count
			graphs = append(graphs, cell.Graph)
			folded = append(folded, CellRef{Spec: ds, Values: cell.Values})
		}
		// The certificate: the descendant cells generalizing to the target
		// must account for every one of its paths. An iceberg-truncated
		// descendant (sub-δ children pruned) sums short and is refused.
		if !usable || len(graphs) == 0 || sum != census {
			continue
		}
		g, err := flowgraph.Fold(graphs)
		if err != nil {
			continue
		}
		cell := &Cell{
			Values:     append([]hierarchy.NodeID(nil), values...),
			Count:      census,
			Graph:      g,
			Similarity: SimilarityUnknown,
		}
		if depth == 0 && p.c.Config.Tau > 0 {
			if err := p.reconstructRedundancy(ctx, spec, cell); err != nil {
				return nil, nil, err
			}
		}
		return cell, folded, nil
	}
	return nil, nil, fmt.Errorf("%w: cuboid %s cell %s: no materialized descendant cuboid partitions it",
		ErrNotComputable, spec.Key(), formatCell(values))
}

// reconstructRedundancy mirrors parentSimilarity for a reconstructed
// cell: its similarity is measured against the graphs its item-lattice
// parents have — or, for parents whose cuboids were pruned, would have had
// (reconstructed recursively). A parent whose cuboid is absent and which
// cannot be reconstructed either makes the cell itself not computable:
// marking it against fewer parents than a full build compares would be a
// guess, and a wrong Redundant bit changes which cell answers.
func (p *planner) reconstructRedundancy(ctx context.Context, spec CuboidSpec, cell *Cell) error {
	compared := 0
	minSim := 1.0
	for _, pr := range p.c.parentRefs(spec, cell.Values) {
		var pg *flowgraph.Graph
		if pc, materialized := p.src.Lookup(pr.Spec, pr.Values); pc != nil && pc.Graph != nil {
			pg = pc.Graph
		} else if !materialized {
			pcell, _, err := p.reconstructCell(ctx, pr.Spec, pr.Values, 1)
			if err != nil {
				return err
			}
			pg = pcell.Graph
		}
		if pg == nil {
			continue
		}
		compared++
		if sim := flowgraph.Similarity(cell.Graph, pg); sim < minSim {
			minSim = sim
		}
	}
	if compared == 0 {
		cell.Similarity = SimilarityUnknown
		cell.Redundant = false
		return nil
	}
	cell.Similarity = minSim
	cell.Redundant = minSim > p.c.Config.Tau
	return nil
}
