package server

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"

	"flowcube/internal/core"
	"flowcube/internal/flowgraph"
	"flowcube/internal/hierarchy"
	"flowcube/internal/stats"
)

// The cell-query bodies — GET /v1/cell and GET /v2/query — are written
// straight into a byte buffer, byte for byte what encoding/json prints for
// the value they describe with a two-space indent and no prefix: keys in
// the order below, a key marked ? absent when its value is zero (omitempty),
// numbers as encoding/json formats them, strings HTML-escaped, and a
// non-finite float failing as Marshal fails. One walk of each flowgraph's
// columns, no reflection, no intermediate tree, no second indentation pass.
//
//	/v2/query  {op, cells: [answer...], truncated?, skipped?}
//	answer     {cell, path_level, provenance, exact, source_cuboid, source,
//	            folded?: [{cuboid, cell}...], graph}
//	/v1/cell   {cell, path_level, exact, source, graph}
//	source     {cell, values: [name...], count, redundant?}
//	graph      {paths, roots: [node...] | null}
//	node       {location, count, prob, termination_prob?, mean_duration,
//	            durations?: {duration: prob, ...}, children?: [node...]}
//
// Flowgraphs keep their prefix-tree shape, distributions become
// {outcome: probability} objects with keys in string order, and every
// hierarchy node is rendered by name so responses are self-describing.

// answerWriter appends one indented JSON document. The indented layout
// depends only on the nesting depth and on whether the enclosing object or
// array is still empty, so that is all the writer tracks.
type answerWriter struct {
	b     []byte
	depth int
	empty bool
	err   error
	// Per-node scratch for the duration object: the distribution's
	// decimal keys (key i is keys[keyEnd[i-1]:keyEnd[i]]) and their string
	// order.
	keys          []byte
	keyEnd, order []int
}

// maxPooledBody caps the scratch buffer a writer keeps between bodies: a
// wide multi-cell answer renders into a fresh buffer instead of pinning
// megabytes in the pool.
const maxPooledBody = 1 << 20

var answerWriters = sync.Pool{New: func() any { return new(answerWriter) }}

// renderAnswer returns a's body: the /v2/query document, or with v1 the
// /v1/cell document of its one cell. The writer renders into pooled
// scratch and the body is an exact-size copy, since the response cache
// keeps it.
func renderAnswer(cube *core.Cube, a *core.Answer, v1 bool) ([]byte, error) {
	w := answerWriters.Get().(*answerWriter)
	if v1 {
		w.cellV1(cube, &a.Cells[0])
	} else {
		w.query(cube, a)
	}
	body, err := append(make([]byte, 0, len(w.b)), w.b...), w.err
	if cap(w.b) <= maxPooledBody {
		w.b, w.err = w.b[:0], nil
		answerWriters.Put(w)
	}
	return body, err
}

// spaces is indentation appended a slice at a time.
const spaces = "                                                                "

func (w *answerWriter) newline() {
	w.b = append(w.b, '\n')
	for n := 2 * w.depth; n > 0; n -= len(spaces) {
		w.b = append(w.b, spaces[:min(n, len(spaces))]...)
	}
}

// open starts an object ('{') or array ('[') as the current value.
func (w *answerWriter) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.empty = true
}

// close ends the innermost object or array; an empty one stays "{}"/"[]".
func (w *answerWriter) close(c byte) {
	w.depth--
	if !w.empty {
		w.newline()
	}
	w.b = append(w.b, c)
	w.empty = false
}

// elem starts the next element of the innermost array.
func (w *answerWriter) elem() {
	if !w.empty {
		w.b = append(w.b, ',')
	}
	w.empty = false
	w.newline()
}

// key starts the next member of the innermost object; k needs no escaping.
func (w *answerWriter) key(k string) {
	w.elem()
	w.b = append(w.b, '"')
	w.b = append(w.b, k...)
	w.b = append(w.b, '"', ':', ' ')
}

func (w *answerWriter) str(s string) { w.b = appendJSONString(w.b, s) }

func (w *answerWriter) int(n int64) { w.b = strconv.AppendInt(w.b, n, 10) }

func (w *answerWriter) bool(v bool) { w.b = strconv.AppendBool(w.b, v) }

func (w *answerWriter) float(f float64) {
	var err error
	if w.b, err = appendJSONFloat(w.b, f); err != nil && w.err == nil {
		w.err = err
	}
}

// appendJSONString appends s quoted as encoding/json quotes it, HTML-safe:
// printable ASCII other than `"`, `\`, `<`, `>` and `&` is copied as is,
// and a string holding any other byte is left to json.Marshal.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat appends f as encoding/json formats a float64: the
// shortest decimal that round-trips, in exponent form below 1e-6 and from
// 1e21 up with a two-digit negative exponent trimmed to one ("e-9").
// NaN and ±Inf append nothing and fail with the *json.UnsupportedValueError
// message Marshal reports.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// query writes the /v2/query document.
func (w *answerWriter) query(cube *core.Cube, a *core.Answer) {
	w.open('{')
	w.key("op")
	w.str(a.Query.Op.String())
	w.key("cells")
	w.open('[')
	for i := range a.Cells {
		w.elem()
		w.answer(cube, &a.Cells[i])
	}
	w.close(']')
	if a.Truncated {
		w.key("truncated")
		w.bool(true)
	}
	if a.Skipped != 0 {
		w.key("skipped")
		w.int(int64(a.Skipped))
	}
	w.close('}')
}

// answer writes one answered cell of a /v2/query document.
func (w *answerWriter) answer(cube *core.Cube, ca *core.CellAnswer) {
	w.open('{')
	w.key("cell")
	w.str(core.FormatCell(cube.Schema, ca.Values))
	w.key("path_level")
	w.int(int64(ca.Spec.PathLevel))
	w.key("provenance")
	w.str(ca.Provenance.String())
	w.key("exact")
	w.bool(ca.Exact)
	w.key("source_cuboid")
	w.str(ca.SourceSpec.Key())
	w.key("source")
	w.source(cube, ca.Source)
	if len(ca.Folded) > 0 {
		w.key("folded")
		w.open('[')
		for _, f := range ca.Folded {
			w.elem()
			w.open('{')
			w.key("cuboid")
			w.str(f.Spec.Key())
			w.key("cell")
			w.str(core.FormatCell(cube.Schema, f.Values))
			w.close('}')
		}
		w.close(']')
	}
	w.key("graph")
	w.graph(cube.Schema.Location, ca.Graph)
	w.close('}')
}

// cellV1 writes the /v1/cell document.
func (w *answerWriter) cellV1(cube *core.Cube, ca *core.CellAnswer) {
	w.open('{')
	w.key("cell")
	w.str(core.FormatCell(cube.Schema, ca.Values))
	w.key("path_level")
	w.int(int64(ca.Spec.PathLevel))
	// exact is false when the graph was inferred from the nearest
	// materialized ancestor (roll-up inference over the non-redundant cube).
	w.key("exact")
	w.bool(ca.Exact)
	w.key("source")
	w.source(cube, ca.Source)
	w.key("graph")
	w.graph(cube.Schema.Location, ca.Graph)
	w.close('}')
}

// source writes the cell that answered.
func (w *answerWriter) source(cube *core.Cube, cell *core.Cell) {
	w.open('{')
	w.key("cell")
	w.str(core.FormatCell(cube.Schema, cell.Values))
	w.key("values")
	if len(cell.Values) == 0 {
		w.b = append(w.b, "null"...)
	} else {
		w.open('[')
		for d, v := range cell.Values {
			w.elem()
			w.str(cube.Schema.Dims[d].Name(v))
		}
		w.close(']')
	}
	w.key("count")
	w.int(cell.Count)
	if cell.Redundant {
		w.key("redundant")
		w.bool(true)
	}
	w.close('}')
}

// graph writes a whole flowgraph measure from its columns, preorder over
// the child ranges, so nodes nest as the prefix tree does. The root's
// transition total is the paths through its children.
func (w *answerWriter) graph(loc *hierarchy.Hierarchy, g *flowgraph.Graph) {
	f := g.Columns()
	w.open('{')
	w.key("paths")
	w.int(f.Paths)
	w.key("roots")
	if lo, hi := f.ChildLo[0], f.ChildLo[1]; lo == hi {
		w.b = append(w.b, "null"...)
	} else {
		var total int64
		for _, c := range f.Counts[lo:hi] {
			total += c
		}
		w.children(loc, f, lo, hi, total)
	}
	w.close('}')
}

// children writes the nodes [lo, hi) of f, siblings whose parent total
// paths reach, as an array.
func (w *answerWriter) children(loc *hierarchy.Hierarchy, f *flowgraph.Flat, lo, hi int32, total int64) {
	w.open('[')
	for i := lo; i < hi; i++ {
		w.elem()
		w.nodeAt(loc, f, i, total)
	}
	w.close(']')
}

// nodeAt writes node i of f — a unique path prefix, with the transition
// probability from its parent, which total paths reach, its termination
// probability, and its duration distribution — and, recursively, its
// children.
func (w *answerWriter) nodeAt(loc *hierarchy.Hierarchy, f *flowgraph.Flat, i int32, total int64) {
	count := f.Counts[i]
	w.open('{')
	w.key("location")
	w.str(loc.Name(hierarchy.NodeID(f.Locations[i])))
	w.key("count")
	w.int(count)
	w.key("prob")
	w.float(stats.Prob(count, total))
	if p := stats.Prob(f.Ends(int(i)), count); p != 0 {
		w.key("termination_prob")
		w.float(p)
	}
	d := f.DurationsAt(i)
	w.key("mean_duration")
	w.float(d.Mean())
	w.durations(&d)
	if lo, hi := f.ChildLo[i], f.ChildLo[i+1]; lo < hi {
		w.key("children")
		w.children(loc, f, lo, hi, count)
	}
	w.close('}')
}

// durations writes a non-empty duration distribution as an object from
// the decimal duration to its probability, keys in string order ("10"
// before "2") as encoding/json sorts map keys.
func (w *answerWriter) durations(d *stats.Sorted) {
	if len(d.Outcomes) == 0 {
		return
	}
	w.keys, w.keyEnd, w.order = w.keys[:0], w.keyEnd[:0], w.order[:0]
	for i, v := range d.Outcomes {
		w.keys = strconv.AppendInt(w.keys, v, 10)
		w.keyEnd = append(w.keyEnd, len(w.keys))
		w.order = append(w.order, i)
	}
	slices.SortFunc(w.order, func(i, j int) int { return bytes.Compare(w.durationKey(i), w.durationKey(j)) })
	w.key("durations")
	w.open('{')
	for _, i := range w.order {
		w.elem()
		w.b = append(w.b, '"')
		w.b = append(w.b, w.durationKey(i)...)
		w.b = append(w.b, '"', ':', ' ')
		w.float(stats.Prob(d.Counts[i], d.Total))
	}
	w.close('}')
}

// durationKey is the decimal form of outcome i of the current distribution.
func (w *answerWriter) durationKey(i int) []byte {
	lo := 0
	if i > 0 {
		lo = w.keyEnd[i-1]
	}
	return w.keys[lo:w.keyEnd[i]]
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

func renderExceptions(cube *core.Cube, k int) []ExceptionJSON {
	ranked := cube.TopExceptions(k)
	out := make([]ExceptionJSON, 0, len(ranked))
	for _, r := range ranked {
		xj := ExceptionJSON{
			Cuboid:              r.Spec.Key(),
			Support:             r.Support,
			DurationDeviation:   r.DurationDeviation,
			TransitionDeviation: r.TransitionDeviation,
			Severity:            core.ExceptionSeverity(r.Exception),
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
		PathLevels: len(cube.PathLevels()),
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
