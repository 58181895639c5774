// Package flowcube is a Go implementation of the FlowCube model of
// Gonzalez, Han & Li (VLDB 2006): an OLAP data cube over RFID path
// databases whose cell measure is a flowgraph — a tree-shaped probabilistic
// workflow summarizing commodity flows, annotated with duration and
// transition distributions and their significant exceptions.
//
// # Model
//
// A path database stores one record per tracked item: path-independent
// dimension values (product, brand, ...) described by concept hierarchies,
// plus the item's path of (location, duration) stages. A flowcube
// aggregates such records along two interacting lattices:
//
//   - the item abstraction lattice — one hierarchy level per dimension, and
//   - the path abstraction lattice — a cut through the location hierarchy
//     crossed with a duration granularity; consecutive stages that
//     aggregate to the same concept merge.
//
// Each cell of a cuboid ⟨Il, Pl⟩ groups the records sharing dimension
// values at level Il and measures them with a flowgraph over their paths
// aggregated to Pl. Cells below a minimum path count δ are not
// materialized (iceberg flowcube), and cells whose flowgraph is τ-similar
// to all of their item-lattice parents can be compressed away
// (non-redundant flowcube) and answered by roll-up inference.
//
// # Quick start
//
//	schema := flowcube.MustNewSchema(location, product, brand)
//	db := flowcube.NewDB(schema)
//	// ... append records ...
//	cfg, err := flowcube.NewConfig(flowcube.Plan{PathLevels: levels},
//		flowcube.WithDelta(25),    // absolute iceberg threshold δ
//		flowcube.WithEpsilon(0.1), // exception significance
//		flowcube.WithExceptions(), // mine exceptions
//	)
//	cube, err := flowcube.BuildContext(ctx, db, cfg)
//	a, err := cube.Answer(ctx, flowcube.Query{Spec: spec, Values: values})
//	fmt.Print(a.Cells[0].Graph)
//
// NewConfig validates eagerly and returns a *ConfigError for bad settings;
// a Config literal passed to Build is validated the same way. The full
// option set: WithDelta (absolute δ) or WithMinSupport (fractional),
// WithEpsilon, WithTau, WithWorkers, WithExceptions (WithDeltaLedger
// remains and does nothing).
// Build and LoadCube are the context-free forms of BuildContext and
// LoadCubeContext.
//
// # Query algebra
//
// Cube.Answer executes one OLAP Query — a cell lookup (OpCell, the zero
// value), a roll-up or drill-down along one dimension, or a slice/dice over
// one cuboid — and reports per-cell Provenance: Materialized for a direct
// hit, ComputedFromDescendants when a non-materialized cell was
// reconstructed exactly at query time by folding a materialized descendant
// cuboid (certified against the cell's census count, so the fold is exact
// or refused), and AncestorFallback for the paper's roll-up inference. See
// DESIGN.md §12.
//
// # Streaming append
//
// A cube built with an absolute δ (WithDelta) is maintainable under
// streaming appends: ApplyDelta(cube, db, batch) folds a batch of new
// records into the materialized cube — touching only the affected cells —
// and is byte-exact against a full rebuild over the union database.
// Serving processes patch a (*Cube).Fork — the next generation, which
// shares every untouched cell, flowgraph node and mapped snapshot section
// with the cube being served, so a LoadCubeLazy cube appends without
// decoding its snapshot — and swap snapshots; see DESIGN.md §9 and
// cmd/flowserve's POST /admin/append.
//
// See examples/quickstart for a complete program built on the paper's
// running example, and DESIGN.md for the system inventory.
package flowcube

import (
	"context"
	"io"

	"flowcube/internal/cleaning"
	"flowcube/internal/core"
	"flowcube/internal/datagen"
	"flowcube/internal/flowgraph"
	"flowcube/internal/hierarchy"
	"flowcube/internal/pathdb"
	"flowcube/internal/transact"
)

// Concept hierarchies and abstraction machinery.
type (
	// Hierarchy is a concept hierarchy: a tree of concepts rooted at "*".
	Hierarchy = hierarchy.Hierarchy
	// NodeID identifies a concept within one Hierarchy.
	NodeID = hierarchy.NodeID
	// Cut selects the location concepts a path abstraction level keeps.
	Cut = hierarchy.Cut
)

// Path database model.
type (
	// Schema describes a path database: dimension hierarchies plus the
	// location hierarchy.
	Schema = pathdb.Schema
	// DB is an in-memory path database.
	DB = pathdb.DB
	// Record is one path database tuple.
	Record = pathdb.Record
	// Path is an item's ordered sequence of stages.
	Path = pathdb.Path
	// Stage is one (location, duration) step.
	Stage = pathdb.Stage
	// PathLevel is a path abstraction level: a location cut plus a time
	// level.
	PathLevel = pathdb.PathLevel
	// TimeLevel is the duration component of a path abstraction level.
	TimeLevel = pathdb.TimeLevel
)

// Flowgraph measure.
type (
	// Flowgraph is the probabilistic workflow measure of a cell.
	Flowgraph = flowgraph.Graph
	// FlowNode is one vertex of a flowgraph: a unique path prefix.
	FlowNode = flowgraph.Node
	// Exception is a significant conditional deviation of a node's
	// distributions.
	Exception = flowgraph.Exception
	// StagePin is one conditioning constraint of an exception.
	StagePin = flowgraph.StagePin
)

// Cube assembly.
type (
	// Config parameterizes Build.
	Config = core.Config
	// Cube is a materialized flowcube.
	Cube = core.Cube
	// Cuboid is one materialized cuboid ⟨Il, Pl⟩.
	Cuboid = core.Cuboid
	// Cell is one flowcube cell.
	Cell = core.Cell
	// CuboidSpec identifies a cuboid.
	CuboidSpec = core.CuboidSpec
	// ItemLevel is an item abstraction level.
	ItemLevel = core.ItemLevel
	// Query describes one OLAP operation for Cube.Answer.
	Query = core.Query
	// Answer is the result of one Query, with typed per-cell provenance.
	Answer = core.Answer
	// CellAnswer is one answered cell of an Answer.
	CellAnswer = core.CellAnswer
	// CellRef names one cell of one cuboid (e.g. the folded descendants of
	// a computed answer).
	CellRef = core.CellRef
	// Selector restricts one dimension to one concept for OpSlice/OpDice.
	Selector = core.Selector
	// Op is the OLAP operation a Query performs.
	Op = core.Op
	// Provenance says how a cell was answered.
	Provenance = core.Provenance
	// Plan is the encoding/materialization plan.
	Plan = transact.Plan
)

// Synthetic workloads (the paper's §6.1 generator).
type (
	// GenConfig parameterizes the synthetic path generator.
	GenConfig = datagen.Config
	// Dataset is a generated path database.
	Dataset = datagen.Dataset
)

// Terminate is the transition outcome standing for "the path ends here" in
// a flowgraph's transition distributions.
const Terminate = flowgraph.Terminate

// RootConcept is the NodeID of the apex concept "*" in every hierarchy.
const RootConcept = hierarchy.Root

// The OLAP operations of a Query.
const (
	OpCell      = core.OpCell
	OpRollUp    = core.OpRollUp
	OpDrillDown = core.OpDrillDown
	OpSlice     = core.OpSlice
	OpDice      = core.OpDice
)

// The provenance of an answered cell.
const (
	Materialized            = core.Materialized
	AncestorFallback        = core.AncestorFallback
	ComputedFromDescendants = core.ComputedFromDescendants
)

// NewHierarchy returns a hierarchy for the named dimension containing only
// the root concept "*".
func NewHierarchy(dimension string) *Hierarchy { return hierarchy.New(dimension) }

// GenerateHierarchy builds a balanced hierarchy with the given fanouts.
func GenerateHierarchy(dimension string, fanouts ...int) *Hierarchy {
	return hierarchy.Generate(dimension, fanouts...)
}

// LevelCut builds the uniform location cut at the given hierarchy level.
func LevelCut(h *Hierarchy, level int) *Cut { return hierarchy.LevelCut(h, level) }

// CutByNames builds a location cut from concept names. The set may nest:
// the deepest selected concept wins, as in the paper's Figure-5 cut that
// keeps the warehouse at detail inside an aggregated store.
func CutByNames(h *Hierarchy, names ...string) (*Cut, error) {
	return hierarchy.CutByNames(h, names...)
}

// TimeBase is the identity time level (durations at source precision).
var TimeBase = pathdb.TimeBase

// TimeAny is the fully aggregated ('*') time level.
var TimeAny = pathdb.TimeAny

// NewSchema builds a path database schema.
func NewSchema(location *Hierarchy, dims ...*Hierarchy) (*Schema, error) {
	return pathdb.NewSchema(location, dims...)
}

// MustNewSchema is NewSchema for statically-known schemas; it panics on
// error.
func MustNewSchema(location *Hierarchy, dims ...*Hierarchy) *Schema {
	return pathdb.MustNewSchema(location, dims...)
}

// NewDB returns an empty path database over the schema.
func NewDB(schema *Schema) *DB { return pathdb.New(schema) }

// AggregatePath aggregates a path to a path abstraction level, merging
// consecutive stages that collapse to the same concept.
func AggregatePath(p Path, level PathLevel) Path {
	return pathdb.AggregatePath(p, level, nil)
}

// Build materializes an iceberg flowcube for the path database: it runs
// the Shared algorithm over the encoded transaction database, constructs a
// flowgraph per frequent cell, mines exceptions, and — when Config.Tau is
// set — marks redundant cells.
func Build(db *DB, cfg Config) (*Cube, error) { return BuildContext(context.Background(), db, cfg) }

// BuildFlowgraph summarizes a path collection directly, outside any cube.
func BuildFlowgraph(loc *Hierarchy, level PathLevel, paths []Path) *Flowgraph {
	return flowgraph.Build(loc, level, paths, nil)
}

// Similarity returns the flowgraph similarity ϕ in (0, 1] used by
// redundancy elimination: 1 for identical induced models.
func Similarity(a, b *Flowgraph) float64 { return flowgraph.Similarity(a, b) }

// Divergence returns the asymmetric weighted KL divergence D(a ‖ b).
func Divergence(a, b *Flowgraph) float64 { return flowgraph.Divergence(a, b) }

// NodeDiff describes one prefix's behavioural shift between two
// flowgraphs.
type NodeDiff = flowgraph.NodeDiff

// Contrast compares a current flowgraph against a baseline (intro
// question 3: "contrast path durations with historic flow information"),
// returning per-node differences ordered by affected flow. k <= 0 returns
// all.
func Contrast(current, baseline *Flowgraph, k int) []NodeDiff {
	return flowgraph.Contrast(current, baseline, k)
}

// Generate builds a synthetic path database with the paper's §6.1
// generator.
func Generate(cfg GenConfig) (*Dataset, error) { return datagen.Generate(cfg) }

// DefaultGenConfig returns the baseline synthetic workload configuration.
func DefaultGenConfig() GenConfig { return datagen.Default() }

// RFID stream cleaning (paper §2): raw (EPC, location, time) readings →
// path database.
type (
	// Reading is one raw RFID reading.
	Reading = cleaning.Reading
	// TaggedItem carries an EPC's path-independent dimension values.
	TaggedItem = cleaning.TaggedItem
	// CleanOptions configures sessionization and duration discretization.
	CleanOptions = cleaning.Options
	// PathSummary is one complete route of a flowgraph with its
	// probability and expected stage durations.
	PathSummary = flowgraph.PathSummary
	// LayerPlan describes a layered partial-materialization request
	// (minimum interesting layer, observation layer, drill path).
	LayerPlan = core.LayerPlan
)

// Clean builds a path database from a raw RFID reading stream, grouping
// readings by EPC, collapsing stays into stages, and discretizing
// durations.
func Clean(schema *Schema, readings []Reading, items map[string]TaggedItem, opts CleanOptions) (*DB, error) {
	return cleaning.Clean(schema, readings, items, opts)
}

// PlanCuboids expands a layered partial-materialization plan into the
// cuboid list for Config.Cuboids.
func PlanCuboids(lp LayerPlan, numPathLevels int) ([]CuboidSpec, error) {
	return core.PlanCuboids(lp, numPathLevels)
}

// LoadCube reconstructs a cube previously serialized with (*Cube).Save.
func LoadCube(r io.Reader) (*Cube, error) { return LoadCubeContext(context.Background(), r) }
