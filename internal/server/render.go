package server

import (
	"sort"
	"strconv"

	"flowcube/internal/core"
	"flowcube/internal/flowgraph"
	"flowcube/internal/hierarchy"
)

// JSON projections of the serving read model. These mirror what the
// flowquery CLI prints, but structured: flowgraphs keep their prefix-tree
// shape, distributions become {outcome: probability} maps, and every
// hierarchy node is rendered by name so responses are self-describing.

// NodeJSON is one flowgraph node: a unique path prefix, annotated with the
// transition probability from its parent, its duration distribution, and
// its termination probability.
type NodeJSON struct {
	Location        string             `json:"location"`
	Count           int64              `json:"count"`
	Prob            float64            `json:"prob"`
	TerminationProb float64            `json:"termination_prob,omitempty"`
	MeanDuration    float64            `json:"mean_duration"`
	Durations       map[string]float64 `json:"durations,omitempty"`
	Children        []NodeJSON         `json:"children,omitempty"`
}

// GraphJSON is a whole flowgraph measure.
type GraphJSON struct {
	Paths int64      `json:"paths"`
	Roots []NodeJSON `json:"roots"`
}

// CellRefJSON identifies a materialized cell.
type CellRefJSON struct {
	Cell      string   `json:"cell"`
	Values    []string `json:"values"`
	Count     int64    `json:"count"`
	Redundant bool     `json:"redundant,omitempty"`
}

// CellResponse is the GET /v1/cell JSON body.
type CellResponse struct {
	Cell      string `json:"cell"`
	PathLevel int    `json:"path_level"`
	// Exact reports whether the requested cell itself answered; false means
	// the graph was inferred from the nearest materialized ancestor
	// (roll-up inference over the non-redundant cube).
	Exact  bool        `json:"exact"`
	Source CellRefJSON `json:"source"`
	Graph  GraphJSON   `json:"graph"`
}

// ExceptionJSON is one ranked exception.
type ExceptionJSON struct {
	Cuboid              string         `json:"cuboid"`
	Cell                []string       `json:"cell"`
	Node                []string       `json:"node"`
	Condition           []StagePinJSON `json:"condition"`
	Support             int64          `json:"support"`
	DurationDeviation   float64        `json:"duration_deviation"`
	TransitionDeviation float64        `json:"transition_deviation"`
	Severity            float64        `json:"severity"`
}

// StagePinJSON is one conditioning constraint of an exception.
type StagePinJSON struct {
	Depth    int    `json:"depth"`
	Location string `json:"location"`
	Duration int64  `json:"duration,omitempty"`
	DurAny   bool   `json:"duration_any,omitempty"`
}

// CuboidJSON summarizes one materialized cuboid.
type CuboidJSON struct {
	Key       string `json:"key"`
	ItemLevel []int  `json:"item_level"`
	PathLevel int    `json:"path_level"`
	Cells     int    `json:"cells"`
	Redundant int    `json:"redundant,omitempty"`
}

// SummaryResponse is the GET /v1/summary JSON body.
type SummaryResponse struct {
	Source     string       `json:"source"`
	LoadedAt   string       `json:"loaded_at"`
	Dimensions []string     `json:"dimensions"`
	PathLevels int          `json:"path_levels"`
	MinCount   int64        `json:"min_count"`
	Cuboids    int          `json:"cuboids"`
	Cells      int          `json:"cells"`
	Largest    []CuboidJSON `json:"largest"`
}

func renderDist(m interface {
	Outcomes() []int64
	Prob(int64) float64
}) map[string]float64 {
	out := make(map[string]float64)
	for _, v := range m.Outcomes() {
		out[strconv.FormatInt(v, 10)] = m.Prob(v)
	}
	return out
}

func renderNode(loc *hierarchy.Hierarchy, parent, n *flowgraph.Node) NodeJSON {
	nj := NodeJSON{
		Location:        loc.Name(n.Location),
		Count:           n.Count,
		Prob:            parent.Transitions.Prob(int64(n.Location)),
		TerminationProb: n.TerminationProb(),
		MeanDuration:    n.Durations.Mean(),
		Durations:       renderDist(n.Durations),
	}
	for _, c := range n.Children() {
		nj.Children = append(nj.Children, renderNode(loc, n, c))
	}
	return nj
}

func renderGraph(loc *hierarchy.Hierarchy, g *flowgraph.Graph) GraphJSON {
	gj := GraphJSON{Paths: g.Paths()}
	for _, c := range g.Root().Children() {
		gj.Roots = append(gj.Roots, renderNode(loc, g.Root(), c))
	}
	return gj
}

func renderCellRef(cube *core.Cube, cell *core.Cell) CellRefJSON {
	ref := CellRefJSON{
		Cell:      core.FormatCell(cube.Schema, cell.Values),
		Count:     cell.Count,
		Redundant: cell.Redundant,
	}
	for d, v := range cell.Values {
		ref.Values = append(ref.Values, cube.Schema.Dims[d].Name(v))
	}
	return ref
}

func renderExceptions(cube *core.Cube, k int) []ExceptionJSON {
	ranked := cube.TopExceptions(k)
	out := make([]ExceptionJSON, 0, len(ranked))
	for _, r := range ranked {
		xj := ExceptionJSON{
			Cuboid:              r.Spec.Key(),
			Support:             r.Support,
			DurationDeviation:   r.DurationDeviation,
			TransitionDeviation: r.TransitionDeviation,
			Severity:            r.Severity(),
		}
		for d, v := range r.Values {
			xj.Cell = append(xj.Cell, cube.Schema.Dims[d].Name(v))
		}
		for _, l := range r.Prefix {
			xj.Node = append(xj.Node, cube.Schema.Location.Name(l))
		}
		for _, p := range r.Condition {
			xj.Condition = append(xj.Condition, StagePinJSON{
				Depth:    p.Depth,
				Location: cube.Schema.Location.Name(p.Location),
				Duration: p.Duration,
				DurAny:   p.DurAny,
			})
		}
		out = append(out, xj)
	}
	return out
}

// CuboidsResponse is the GET /v1/cuboids JSON body: the full materialized
// cuboid census, including empty cuboids — unlike /v1/summary's Largest
// list, which is sampled. A cluster router uses it to validate at startup
// that every shard materializes the same lattice (internal/cluster).
type CuboidsResponse struct {
	Source     string       `json:"source"`
	LoadedAt   string       `json:"loaded_at"`
	Dimensions []string     `json:"dimensions"`
	PathLevels int          `json:"path_levels"`
	MinCount   int64        `json:"min_count"`
	Cells      int          `json:"cells"`
	Cuboids    []CuboidJSON `json:"cuboids"`
}

func renderCuboids(snap *Snapshot) CuboidsResponse {
	cube := snap.Cube
	resp := CuboidsResponse{
		Source:     snap.Source,
		LoadedAt:   snap.LoadedAt.UTC().Format("2006-01-02T15:04:05Z"),
		PathLevels: len(cube.Symbols.PathLevels()),
		MinCount:   cube.MinCount(),
		Cells:      cube.NumCells(),
	}
	for _, h := range cube.Schema.Dims {
		resp.Dimensions = append(resp.Dimensions, h.Dimension())
	}
	summaries := cube.CuboidSummaries()
	resp.Cuboids = make([]CuboidJSON, 0, len(summaries))
	for _, s := range summaries {
		resp.Cuboids = append(resp.Cuboids, CuboidJSON{
			Key:       s.Key,
			ItemLevel: s.Item,
			PathLevel: s.PathLevel,
			Cells:     s.Cells,
			Redundant: s.Redundant,
		})
	}
	return resp
}

// Summary derives the /v1/summary body from the full census: the same
// header, and the non-empty cuboids largest first (key as tiebreak), capped
// at 20 to keep the payload bounded. The cluster router derives its summary
// from the merged census the same way.
func (c CuboidsResponse) Summary() SummaryResponse {
	resp := SummaryResponse{
		Source:     c.Source,
		LoadedAt:   c.LoadedAt,
		Dimensions: c.Dimensions,
		PathLevels: c.PathLevels,
		MinCount:   c.MinCount,
		Cuboids:    len(c.Cuboids),
		Cells:      c.Cells,
	}
	for _, cb := range c.Cuboids {
		if cb.Cells > 0 {
			resp.Largest = append(resp.Largest, cb)
		}
	}
	sort.Slice(resp.Largest, func(i, j int) bool {
		if resp.Largest[i].Cells != resp.Largest[j].Cells {
			return resp.Largest[i].Cells > resp.Largest[j].Cells
		}
		return resp.Largest[i].Key < resp.Largest[j].Key
	})
	if len(resp.Largest) > 20 {
		resp.Largest = resp.Largest[:20]
	}
	return resp
}
