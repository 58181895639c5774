package server

// The cell-query endpoints. GET /v1/cell and GET /v2/query are two wire
// formats over one engine: a Request is the parsed form of either, answered
// by core.Cube.Answer — the cell, else its exact reconstruction from
// materialized descendants, else the nearest ancestor — and rendered in the
// format it arrived in. GET /v2/partial ships what this snapshot holds
// toward one cell (core.Cube.Partial), so the cluster router can run the
// same planner over cells scattered across shards (internal/cluster). The
// parsers, Request.Respond and PartialCellJSON.Decode are exported for that
// router: routed bodies equal single-node bodies because they come out of
// the same functions.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"flowcube/internal/core"
	"flowcube/internal/flowgraph"
	"flowcube/internal/olap"
)

// RenderQueryResponse returns the /v2/query body for a as a
// json.RawMessage: indenting it again with encoding/json (two spaces, no
// prefix) reproduces the bytes Respond serves. A body that failed to
// render lacks the non-finite number's value, so marshalling it fails as
// well.
func RenderQueryResponse(cube *core.Cube, a *core.Answer) json.RawMessage {
	body, _ := renderAnswer(cube, a, false)
	return body
}

// Request is one parsed /v1/cell or /v2/query request: the query to answer,
// and the wire format to answer it in.
type Request struct {
	Query core.Query
	// format is /v1/cell's json|dot choice, empty for /v2/query; cell is
	// /v1/cell's raw cell parameter, which names the dot graph and the 404.
	format string
	cell   string
}

// ParseCellRequest parses GET /v1/cell (cell, pathlevel, format). The
// validation order and messages are part of the v1 contract
// (testdata/golden_v1.json): format, then pathlevel syntax, then the cell
// spec, then the pathlevel range.
func ParseCellRequest(cube *core.Cube, params url.Values) (Request, error) {
	rq := Request{cell: params.Get("cell"), format: params.Get("format")}
	if rq.format == "" {
		rq.format = "json"
	}
	if rq.format != "json" && rq.format != "dot" {
		return Request{}, &HTTPError{http.StatusBadRequest, fmt.Sprintf("unknown format %q, want json or dot", rq.format)}
	}
	pathLevel := 0
	if pl := params.Get("pathlevel"); pl != "" {
		n, err := strconv.Atoi(pl)
		if err != nil {
			return Request{}, &HTTPError{http.StatusBadRequest, fmt.Sprintf("bad pathlevel %q", pl)}
		}
		pathLevel = n
	}
	il, values, err := core.ParseCellSpec(cube.Schema, rq.cell)
	if err != nil {
		return Request{}, &HTTPError{http.StatusBadRequest, err.Error()}
	}
	if pathLevel < 0 || pathLevel >= len(cube.PathLevels()) {
		return Request{}, &HTTPError{http.StatusBadRequest,
			fmt.Sprintf("pathlevel %d out of range, cube has %d path levels", pathLevel, len(cube.PathLevels()))}
	}
	rq.Query = core.Query{Op: core.OpCell, Spec: core.CuboidSpec{Item: il, PathLevel: pathLevel}, Values: values}
	return rq, nil
}

// ParseQueryRequest parses GET /v2/query (see olap.ParseQuery for the
// parameters).
func ParseQueryRequest(cube *core.Cube, params url.Values) (Request, error) {
	q, err := olap.ParseQuery(cube, params)
	if err != nil {
		return Request{}, &HTTPError{http.StatusBadRequest, err.Error()}
	}
	return Request{Query: q}, nil
}

// Respond turns what Answer returned for rq.Query into the response body
// and its content type, or the error to write. cube is the cube that
// planned the answer; a metadata-only one renders as well as a full one.
func (rq Request) Respond(cube *core.Cube, a *core.Answer, err error) ([]byte, string, error) {
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The request's deadline, not the query: WriteError answers it 503.
		return nil, "", err
	case errors.Is(err, core.ErrCellNotFound):
		// A lazily loaded cube answers "not found" both for genuinely absent
		// cells and when the section holding them failed to decode; the
		// sticky LazyErr disambiguates corruption (500) from absence (404).
		if lerr := cube.LazyErr(); lerr != nil {
			return nil, "", &HTTPError{http.StatusInternalServerError, lerr.Error()}
		}
		msg := err.Error()
		if rq.format != "" {
			msg = fmt.Sprintf("no materialized cell answers %q (even by roll-up)", rq.cell)
		}
		return nil, "", &HTTPError{http.StatusNotFound, msg}
	default:
		return nil, "", &HTTPError{http.StatusBadRequest, err.Error()}
	}
	if rq.format == "dot" {
		name := rq.cell
		if name == "" {
			name = "apex"
		}
		return []byte(a.Cells[0].Graph.DOT(name)), "text/vnd.graphviz; charset=utf-8", nil
	}
	body, err := renderAnswer(cube, a, rq.format == "json")
	return body, "application/json", err
}

// compute produces one cacheable response (errors are not cached).
type compute func(ctx context.Context, cube *core.Cube, params url.Values) (body []byte, contentType string, err error)

// answerWith is the compute of a cell-query endpoint: parse, answer, render.
func answerWith(parse func(*core.Cube, url.Values) (Request, error)) compute {
	return func(ctx context.Context, cube *core.Cube, params url.Values) ([]byte, string, error) {
		rq, err := parse(cube, params)
		if err != nil {
			return nil, "", err
		}
		a, err := cube.Answer(ctx, rq.Query)
		return rq.Respond(cube, a, err)
	}
}

// serveCached serves a GET endpoint through the snapshot's LRU response
// cache: identical requests replay the stored body, concurrent identical
// misses share one fn call, and a request waits on another's call only
// until its own deadline. The key is the raw query string under the
// endpoint's prefix, so a hit costs no parsing; the body goes out with its
// length, unchunked.
func (s *Server) serveCached(prefix string, fn compute) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		snap := s.holder.get()
		ctx := r.Context()
		v, hit, err := snap.cache.Do(ctx, prefix+r.URL.RawQuery, func() (*cached, int64, error) {
			body, contentType, err := fn(ctx, snap.Cube, r.URL.Query())
			if err != nil {
				return nil, 0, err
			}
			return &cached{status: http.StatusOK, contentType: contentType, body: body}, 1, nil
		})
		if err != nil {
			s.metrics.cacheMisses.Add(1)
			WriteError(w, err)
			return
		}
		xCache := "miss"
		if hit {
			s.metrics.cacheHits.Add(1)
			xCache = "hit"
		} else {
			s.metrics.cacheMisses.Add(1)
		}
		h := w.Header()
		h.Set("Content-Type", v.contentType)
		h.Set("Content-Length", strconv.Itoa(len(v.body)))
		h.Set("X-Cache", xCache)
		w.WriteHeader(v.status)
		w.Write(v.body) //nolint:errcheck
	}
}

// PartialCellJSON is one cell in transit to the router's planner, with its
// flowgraph in the portable flat encoding (core.EncodeGraph, base64 over
// the wire). A cell compressed down to its count travels without a graph.
type PartialCellJSON struct {
	Cell       string  `json:"cell"`
	Count      int64   `json:"count"`
	Graph      []byte  `json:"graph,omitempty"`
	Redundant  bool    `json:"redundant,omitempty"`
	Similarity float64 `json:"similarity"`
}

func renderPartialCell(cube *core.Cube, cell *core.Cell) PartialCellJSON {
	pc := PartialCellJSON{
		Cell:       core.FormatCell(cube.Schema, cell.Values),
		Count:      cell.Count,
		Redundant:  cell.Redundant,
		Similarity: cell.Similarity,
	}
	if cell.Graph != nil {
		pc.Graph = core.EncodeGraph(cell.Graph)
	}
	return pc
}

// Decode rebuilds the cell against the receiver's own (metadata) cube.
func (pc PartialCellJSON) Decode(cube *core.Cube, pathLevel int) (*core.Cell, error) {
	_, values, err := core.ParseCellSpec(cube.Schema, pc.Cell)
	if err != nil {
		return nil, err
	}
	var g *flowgraph.Graph
	if len(pc.Graph) > 0 {
		if g, err = cube.DecodeGraph(pathLevel, pc.Graph); err != nil {
			return nil, err
		}
	}
	return &core.Cell{Values: values, Count: pc.Count, Graph: g, Redundant: pc.Redundant, Similarity: pc.Similarity}, nil
}

// PartialCuboidJSON groups one descendant cuboid's local fold sources.
type PartialCuboidJSON struct {
	Cuboid string            `json:"cuboid"`
	Cells  []PartialCellJSON `json:"cells"`
}

// PartialResponse is the GET /v2/partial JSON body: core.Partial on the
// wire, everything this shard holds toward answering one cell. Self is the
// cell itself when this shard owns and holds it. Materialized reports
// whether the cell's cuboid is materialized (the cuboid lattice is
// replicated, so every shard answers alike); the rest is sent only when it
// is not, the one case the planner reconstructs: Census, the cell's exact
// path count (-1 on every shard but the owner of its values); Lattice, the
// materialized cuboid keys; Descendants, nearest first, the local cells of
// each materialized descendant cuboid that generalize to the cell. The
// router's planner sums a cuboid's counts across shards and folds the first
// whose total matches the census — core's certificate, so a scattered fold
// is either exact or refused.
type PartialResponse struct {
	Cuboid       string              `json:"cuboid"`
	Cell         string              `json:"cell"`
	Materialized bool                `json:"materialized"`
	Self         *PartialCellJSON    `json:"self,omitempty"`
	Census       int64               `json:"census"`
	Lattice      []string            `json:"lattice,omitempty"`
	Descendants  []PartialCuboidJSON `json:"descendants,omitempty"`
}

// computePartial serves GET /v2/partial?cell=...&pathlevel=N, addressed
// like /v1/cell.
func computePartial(_ context.Context, cube *core.Cube, params url.Values) ([]byte, string, error) {
	rq, err := ParseCellRequest(cube, params)
	if err != nil {
		return nil, "", err
	}
	spec, values := rq.Query.Spec, rq.Query.Values
	p := cube.Partial(spec, values)
	// A section that failed to decode reads as absent cells; never pass
	// that off to the router as a short (refusable) fold.
	if lerr := cube.LazyErr(); lerr != nil {
		return nil, "", &HTTPError{http.StatusInternalServerError, lerr.Error()}
	}
	resp := PartialResponse{
		Cuboid:       spec.Key(),
		Cell:         core.FormatCell(cube.Schema, values),
		Materialized: p.Materialized,
		Census:       p.Census,
	}
	if p.Self != nil {
		self := renderPartialCell(cube, p.Self)
		resp.Self = &self
	}
	for _, ms := range p.Lattice {
		resp.Lattice = append(resp.Lattice, ms.Key())
	}
	for _, fs := range p.Folds {
		pc := PartialCuboidJSON{Cuboid: fs.Spec.Key()}
		for _, cell := range fs.Cells {
			pc.Cells = append(pc.Cells, renderPartialCell(cube, cell))
		}
		resp.Descendants = append(resp.Descendants, pc)
	}
	body, err := json.MarshalIndent(resp, "", "  ")
	return body, "application/json", err
}
