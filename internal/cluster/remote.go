package cluster

// Routed cell queries. The router answers /v1/cell and /v2/query with the
// single node's own pipeline — internal/server's parser, core's planner
// (Cube.AnswerFrom), internal/server's renderer — and differs in one place
// only: the planner's cells come from remoteSource, a core.CellSource over
// the shard fleet, instead of from a local cube. A cell lives on the shard
// that owns its values, so a lookup is one GET /v2/partial to that shard; a
// materialized hit costs exactly that. The fold sources of a cell whose
// cuboid is not materialized are scattered, so collecting them asks every
// shard, and the planner's census certificate then holds or refuses the
// fold against the fleet-wide sum exactly as it does on one node.
//
// Only op=cell and op=rollup are routed; the multi-cell ops (drilldown,
// slice, dice) need cross-shard cell enumeration the router does not
// implement — they answer 501.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"

	"flowcube/internal/core"
	"flowcube/internal/hierarchy"
	"flowcube/internal/server"
)

// handleQuery routes one cell query arriving in parse's wire format.
func (rt *Router) handleQuery(parse func(*core.Cube, url.Values) (server.Request, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rq, err := parse(rt.meta, r.URL.Query())
		if err != nil {
			server.WriteError(w, err)
			return
		}
		if op := rq.Query.Op; op != core.OpCell && op != core.OpRollUp {
			server.WriteError(w, &server.HTTPError{Status: http.StatusNotImplemented,
				Msg: fmt.Sprintf("op %s is not implemented by the cluster router; use op=cell or query a shard directly", op)})
			return
		}
		src := &remoteSource{rt: rt, partials: map[core.CellRefKey][]*server.PartialResponse{}}
		src.get = func(pathQuery string, want func(shard int) bool) []shardResult {
			return rt.scatter(r.Context(), pathQuery, want)
		}
		a, err := rt.meta.AnswerFrom(r.Context(), src, rq.Query)
		if server.TimedOut(w, r) {
			// A shard call the deadline cut short is no shard failure.
			return
		}
		if src.err != nil {
			// Checked before the answer: a plan that lost a shard may still
			// have found a cell — just not the one a whole fleet would have.
			server.WriteError(w, src.err)
			return
		}
		body, contentType, err := rq.Respond(rt.meta, a, err)
		if err != nil {
			server.WriteError(w, err)
			return
		}
		w.Header().Set("Content-Type", contentType)
		w.WriteHeader(http.StatusOK)
		w.Write(body) //nolint:errcheck // client gone; nothing to do
	}
}

// remoteSource is the shard fleet as a core.CellSource, for the life of one
// request. Every read is a GET /v2/partial, cached per cell and shard so
// the planner's repeated questions about a cell cost one call. Like a lazy
// cube's, its reads cannot return errors: the first shard failure is kept
// in err, every later read reports absence without calling out, and the
// handler answers 502 whatever the plan then found.
type remoteSource struct {
	rt *Router
	// get is rt.scatter of one GET under the request's context.
	get func(pathQuery string, want func(shard int) bool) []shardResult
	// partials maps a cell to its /v2/partial body per shard (nil: not
	// asked, or failed).
	partials map[core.CellRefKey][]*server.PartialResponse
	// lattice is the fleet's materialized cuboid list, taken from the first
	// partial that carries one (every partial of a non-materialized cuboid's
	// cell does — the only cells the planner asks the list for).
	lattice []core.CuboidSpec
	err     error
}

// partial returns the cell's /v2/partial bodies indexed by shard: the
// owning shard's, or with all set every shard's, fetching what is missing.
func (s *remoteSource) partial(spec core.CuboidSpec, values []hierarchy.NodeID, all bool) (bodies []*server.PartialResponse, owner int) {
	rt := s.rt
	owner = rt.part.Owner(values)
	key := core.CellRefKey{Spec: spec.Key(), ID: core.MakeCellID(values)}
	bodies = s.partials[key]
	if bodies == nil {
		bodies = make([]*server.PartialResponse, len(rt.shards))
		s.partials[key] = bodies
	}
	if s.err != nil {
		return bodies, owner
	}
	pathQuery := "/v2/partial?cell=" + url.QueryEscape(core.FormatCell(rt.meta.Schema, values)) +
		"&pathlevel=" + strconv.Itoa(spec.PathLevel)
	results := s.get(pathQuery, func(i int) bool { return bodies[i] == nil && (all || i == owner) })
	for i, res := range results {
		if res.Shard == "" {
			continue // not asked
		}
		var p server.PartialResponse
		switch {
		case res.Err != nil:
			s.fail("shard %s unreachable: %v", res.Shard, res.Err)
		case res.Status != http.StatusOK:
			s.fail("shard %s answered status %d", res.Shard, res.Status)
		case json.Unmarshal(res.Body, &p) != nil:
			s.fail("shard %s answered an unparseable partial response", res.Shard)
		default:
			bodies[i] = &p
			if s.lattice == nil {
				s.setLattice(res.Shard, p.Lattice)
			}
		}
	}
	return bodies, owner
}

func (s *remoteSource) fail(format string, args ...any) {
	if s.err == nil {
		s.err = gatewayError(format, args...)
	}
}

func (s *remoteSource) setLattice(shard string, keys []string) {
	for _, key := range keys {
		spec, err := core.ParseCuboidKey(key)
		if err != nil {
			s.fail("shard %s: %v", shard, err)
			return
		}
		s.lattice = append(s.lattice, spec)
	}
}

// decode rebuilds a cell a shard sent; an undecodable one fails the request.
func (s *remoteSource) decode(pc server.PartialCellJSON, pathLevel int) *core.Cell {
	cell, err := pc.Decode(s.rt.meta, pathLevel)
	if err != nil {
		s.fail("a shard sent an undecodable cell %q: %v", pc.Cell, err)
		return nil
	}
	return cell
}

func (s *remoteSource) Lookup(spec core.CuboidSpec, values []hierarchy.NodeID) (*core.Cell, bool) {
	bodies, owner := s.partial(spec, values, false)
	p := bodies[owner]
	if p == nil {
		return nil, false
	}
	if p.Self == nil {
		return nil, p.Materialized
	}
	return s.decode(*p.Self, spec.PathLevel), p.Materialized
}

func (s *remoteSource) Census(spec core.CuboidSpec, values []hierarchy.NodeID) (int64, bool) {
	bodies, owner := s.partial(spec, values, false)
	if p := bodies[owner]; p != nil && p.Census >= 0 {
		return p.Census, true
	}
	return 0, false
}

func (s *remoteSource) MaterializedSpecs() []core.CuboidSpec { return s.lattice }

func (s *remoteSource) FoldSources(ds, spec core.CuboidSpec, values []hierarchy.NodeID) []*core.Cell {
	bodies, _ := s.partial(spec, values, true)
	key := ds.Key()
	var cells []*core.Cell
	for _, p := range bodies {
		if p == nil {
			return nil // a shard failed; s.err says which
		}
		for _, d := range p.Descendants {
			if d.Cuboid != key {
				continue
			}
			for _, pc := range d.Cells {
				cell := s.decode(pc, ds.PathLevel)
				if cell == nil {
					return nil
				}
				cells = append(cells, cell)
			}
		}
	}
	// Each shard lists its slice in CompareCells order; the single node
	// folds the union in that order, and the folded list is part of the body.
	slices.SortFunc(cells, func(a, b *core.Cell) int { return core.CompareCells(a.Values, b.Values) })
	return cells
}
