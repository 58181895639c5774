package core

// Legacy snapshot format v1: encoding/gob over explicit recursive DTOs.
// Save now writes the columnar v2 format (snapshotv2.go); this file keeps
// the v1 codec so that (a) Load still opens every previously materialized
// snapshot — LoadWith sniffs the magic and dispatches here — and (b) the
// persist benchmarks and the golden-fixture compat test retain the gob
// baseline to measure and regenerate against (SaveV1).

import (
	"encoding/gob"
	"fmt"
	"io"

	"flowcube/internal/flowgraph"
	"flowcube/internal/hierarchy"
	"flowcube/internal/pathdb"
	"flowcube/internal/stats"
	"flowcube/internal/transact"
)

// persistMagic guards against feeding arbitrary gob streams into Load.
const persistMagic = "flowcube-v1"

type hierarchyDTO struct {
	Dimension string
	// Names and Parents describe nodes 1..n (the root is implicit);
	// Parents index into the same node numbering, 0 = root.
	Names   []string
	Parents []int32
}

type cutDTO struct{ Nodes []int32 }

type pathLevelDTO struct {
	Cut  cutDTO
	Time pathdb.TimeLevel
}

type distDTO struct {
	Outcomes []int64
	Counts   []int64
}

type nodeDTO struct {
	Location    int32
	Durations   distDTO
	Transitions distDTO
	Count       int64
	Children    []nodeDTO
}

type pinDTO struct {
	Depth    int
	Location int32
	Duration int64
	DurAny   bool
}

type exceptionDTO struct {
	Prefix              []int32
	Condition           []pinDTO
	Support             int64
	Durations           distDTO
	Transitions         distDTO
	DurationDeviation   float64
	TransitionDeviation float64
}

type graphDTO struct {
	Paths      int64
	Root       nodeDTO
	Exceptions []exceptionDTO
}

type cellDTO struct {
	Values     []int32
	Count      int64
	Redundant  bool
	Similarity float64
	Graph      graphDTO
}

type cuboidDTO struct {
	ItemLevel []int
	PathLevel int
	Cells     []cellDTO
}

type cubeDTO struct {
	Magic      string
	Location   hierarchyDTO
	Dims       []hierarchyDTO
	DimLevels  [][]int
	PathLevels []pathLevelDTO
	MinCount   int64
	Epsilon    float64
	Tau        float64
	Cuboids    []cuboidDTO
}

func encodeHierarchy(h *hierarchy.Hierarchy) hierarchyDTO {
	dto := hierarchyDTO{Dimension: h.Dimension()}
	for id := hierarchy.NodeID(1); int(id) < h.Len(); id++ {
		dto.Names = append(dto.Names, h.Name(id))
		dto.Parents = append(dto.Parents, int32(h.Parent(id)))
	}
	return dto
}

func decodeHierarchy(dto hierarchyDTO) (*hierarchy.Hierarchy, error) {
	h := hierarchy.New(dto.Dimension)
	if len(dto.Names) != len(dto.Parents) {
		return nil, fmt.Errorf("core: corrupt hierarchy %q", dto.Dimension)
	}
	for i, name := range dto.Names {
		p := hierarchy.NodeID(dto.Parents[i])
		if int(p) >= h.Len() {
			return nil, fmt.Errorf("core: hierarchy %q: node %q references later parent", dto.Dimension, name)
		}
		if _, err := h.Add(h.Name(p), name); err != nil {
			return nil, err
		}
	}
	return h, nil
}

func encodeDist(m *stats.Multinomial) distDTO {
	var dto distDTO
	for _, v := range m.Outcomes() {
		dto.Outcomes = append(dto.Outcomes, v)
		dto.Counts = append(dto.Counts, m.Count(v))
	}
	return dto
}

func decodeDist(dto distDTO) (*stats.Multinomial, error) {
	if len(dto.Outcomes) != len(dto.Counts) {
		return nil, fmt.Errorf("core: corrupt distribution")
	}
	m := stats.NewMultinomial()
	for i, v := range dto.Outcomes {
		if dto.Counts[i] < 0 {
			return nil, fmt.Errorf("core: negative count in distribution")
		}
		m.Add(v, dto.Counts[i])
	}
	return m, nil
}

func encodeGraph(g *flowgraph.Graph) graphDTO {
	var encNode func(n *flowgraph.Node) nodeDTO
	encNode = func(n *flowgraph.Node) nodeDTO {
		dto := nodeDTO{
			Location:    int32(n.Location),
			Durations:   encodeDist(n.Durations),
			Transitions: encodeDist(n.Transitions),
			Count:       n.Count,
		}
		for _, c := range n.Children() {
			dto.Children = append(dto.Children, encNode(c))
		}
		return dto
	}
	dto := graphDTO{Paths: g.Paths(), Root: encNode(g.Root())}
	for _, x := range g.Exceptions() {
		xd := exceptionDTO{
			Support:             x.Support,
			Durations:           encodeDist(x.Durations),
			Transitions:         encodeDist(x.Transitions),
			DurationDeviation:   x.DurationDeviation,
			TransitionDeviation: x.TransitionDeviation,
		}
		for _, l := range x.Prefix {
			xd.Prefix = append(xd.Prefix, int32(l))
		}
		for _, p := range x.Condition {
			xd.Condition = append(xd.Condition, pinDTO{
				Depth: p.Depth, Location: int32(p.Location), Duration: p.Duration, DurAny: p.DurAny,
			})
		}
		dto.Exceptions = append(dto.Exceptions, xd)
	}
	return dto
}

func decodeGraph(dto graphDTO, loc *hierarchy.Hierarchy, level pathdb.PathLevel) (*flowgraph.Graph, error) {
	g := flowgraph.New(loc, level, nil)
	var walk func(parent []hierarchy.NodeID, dto nodeDTO) error
	walk = func(prefix []hierarchy.NodeID, nd nodeDTO) error {
		for _, c := range nd.Children {
			seq := append(prefix, hierarchy.NodeID(c.Location))
			dur, err := decodeDist(c.Durations)
			if err != nil {
				return err
			}
			tr, err := decodeDist(c.Transitions)
			if err != nil {
				return err
			}
			if err := g.Graft(seq, c.Count, dur, tr); err != nil {
				return err
			}
			if err := walk(seq, c); err != nil {
				return err
			}
		}
		return nil
	}
	rootTr, err := decodeDist(dto.Root.Transitions)
	if err != nil {
		return nil, err
	}
	g.SetRootTransitions(dto.Paths, rootTr)
	if err := walk(nil, dto.Root); err != nil {
		return nil, err
	}
	for _, xd := range dto.Exceptions {
		prefix := make([]hierarchy.NodeID, len(xd.Prefix))
		for i, l := range xd.Prefix {
			prefix[i] = hierarchy.NodeID(l)
		}
		pins := make([]flowgraph.StagePin, len(xd.Condition))
		for i, p := range xd.Condition {
			pins[i] = flowgraph.StagePin{
				Depth: p.Depth, Location: hierarchy.NodeID(p.Location), Duration: p.Duration, DurAny: p.DurAny,
			}
		}
		dur, err := decodeDist(xd.Durations)
		if err != nil {
			return nil, err
		}
		tr, err := decodeDist(xd.Transitions)
		if err != nil {
			return nil, err
		}
		if err := g.GraftException(prefix, pins, xd.Support, dur, tr, xd.DurationDeviation, xd.TransitionDeviation); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// SaveV1 serializes the cube in the legacy v1 gob format. New snapshots
// should use Save (format v2); SaveV1 exists as the benchmark baseline and
// to regenerate the v1 golden compat fixture.
func (c *Cube) SaveV1(w io.Writer) error {
	dto := cubeDTO{
		Magic:     persistMagic,
		Location:  encodeHierarchy(c.Schema.Location),
		DimLevels: c.Symbols.DimLevels(),
		MinCount:  c.minCount,
		Epsilon:   c.Config.Epsilon,
		Tau:       c.Config.Tau,
	}
	for _, h := range c.Schema.Dims {
		dto.Dims = append(dto.Dims, encodeHierarchy(h))
	}
	for _, pl := range c.Symbols.PathLevels() {
		pld := pathLevelDTO{Time: pl.Time}
		for _, n := range pl.Cut.Nodes() {
			pld.Cut.Nodes = append(pld.Cut.Nodes, int32(n))
		}
		dto.PathLevels = append(dto.PathLevels, pld)
	}
	// Cuboids (and, via SortedCells, their cells) are encoded in sorted key
	// order so two saves of the same cube are byte-identical.
	for _, cb := range c.sortedCuboids() {
		cbd := cuboidDTO{ItemLevel: cb.Spec.Item, PathLevel: cb.Spec.PathLevel}
		for _, cell := range cb.SortedCells() {
			cd := cellDTO{
				Count:      cell.Count,
				Redundant:  cell.Redundant,
				Similarity: cell.Similarity,
			}
			for _, v := range cell.Values {
				cd.Values = append(cd.Values, int32(v))
			}
			if cell.Graph != nil {
				cd.Graph = encodeGraph(cell.Graph)
			}
			cbd.Cells = append(cbd.Cells, cd)
		}
		dto.Cuboids = append(dto.Cuboids, cbd)
	}
	return gob.NewEncoder(w).Encode(dto)
}

// loadV1 reconstructs a cube from the legacy v1 gob stream.
func loadV1(r io.Reader) (*Cube, error) {
	var dto cubeDTO
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("core: load cube: %w", err)
	}
	if dto.Magic != persistMagic {
		return nil, fmt.Errorf("core: not a flowcube file (magic %q)", dto.Magic)
	}
	location, err := decodeHierarchy(dto.Location)
	if err != nil {
		return nil, err
	}
	dims := make([]*hierarchy.Hierarchy, len(dto.Dims))
	for i, hd := range dto.Dims {
		if dims[i], err = decodeHierarchy(hd); err != nil {
			return nil, err
		}
	}
	schema, err := pathdb.NewSchema(location, dims...)
	if err != nil {
		return nil, err
	}
	levels := make([]pathdb.PathLevel, len(dto.PathLevels))
	for i, pld := range dto.PathLevels {
		nodes := make([]hierarchy.NodeID, len(pld.Cut.Nodes))
		for j, n := range pld.Cut.Nodes {
			nodes[j] = hierarchy.NodeID(n)
		}
		cut, err := hierarchy.NewCut(location, nodes)
		if err != nil {
			return nil, err
		}
		levels[i] = pathdb.PathLevel{Cut: cut, Time: pld.Time}
	}
	plan := transact.Plan{DimLevels: dto.DimLevels, PathLevels: levels}
	syms, err := transact.NewSymbols(schema, plan)
	if err != nil {
		return nil, err
	}

	cube := &Cube{
		Schema:   schema,
		Config:   Config{MinCount: dto.MinCount, Epsilon: dto.Epsilon, Tau: dto.Tau, Plan: plan},
		Symbols:  syms,
		Cuboids:  make(map[string]*Cuboid),
		minCount: dto.MinCount,
	}
	for _, cbd := range dto.Cuboids {
		spec := CuboidSpec{Item: cbd.ItemLevel, PathLevel: cbd.PathLevel}
		if err := validateSpec(spec, syms, schema); err != nil {
			return nil, err
		}
		cb := &Cuboid{Spec: spec, Cells: make(map[string]*Cell, len(cbd.Cells))}
		for _, cd := range cbd.Cells {
			values := make([]hierarchy.NodeID, len(cd.Values))
			for i, v := range cd.Values {
				values[i] = hierarchy.NodeID(v)
			}
			g, err := decodeGraph(cd.Graph, location, levels[cbd.PathLevel])
			if err != nil {
				return nil, err
			}
			cb.Cells[cellKey(values)] = &Cell{
				Values:     values,
				Count:      cd.Count,
				Redundant:  cd.Redundant,
				Similarity: cd.Similarity,
				Graph:      g,
			}
		}
		cube.Cuboids[spec.Key()] = cb
	}
	return cube, nil
}
