package cluster

// Scatter-gather reads: the census endpoints (/v1/cuboids, /v1/summary)
// merge per-shard counts positionally over the validated common cuboid
// lattice, and /v1/exceptions re-ranks the union of per-shard top-k lists
// with the exact single-node comparator. Both degrade to the responding
// subset (flagged via the X-Cluster-Partial header) when shards are down;
// cell queries never degrade — a missing shard could hide the answer.

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"

	"flowcube/internal/core"
	"flowcube/internal/flowgraph"
	"flowcube/internal/hierarchy"
	"flowcube/internal/server"
)

// Validate scatters /v1/cuboids and checks that every shard serves a split
// of the router's snapshot: same iceberg threshold, dimensions, path
// levels, and materialized cuboid lattice. Call it once at startup — a
// shard fleet pointed at the wrong snapshot fails loudly here instead of
// answering subtly wrong merges.
func (rt *Router) Validate(ctx context.Context) error {
	parsed, results := rt.scatterCuboids(ctx)
	var first *server.CuboidsResponse
	for i, p := range parsed {
		if results[i].Err != nil {
			return fmt.Errorf("cluster: shard %s unreachable: %w", results[i].Shard, results[i].Err)
		}
		if p == nil {
			return fmt.Errorf("cluster: shard %s answered status %d to /v1/cuboids", results[i].Shard, results[i].Status)
		}
		if err := rt.checkShardCensus(p); err != nil {
			return fmt.Errorf("cluster: shard %s: %w", results[i].Shard, err)
		}
		if first == nil {
			first = p
			continue
		}
		if err := alignedCensus(first.Cuboids, p.Cuboids); err != nil {
			return fmt.Errorf("cluster: shard %s: %w", results[i].Shard, err)
		}
	}
	return nil
}

// checkShardCensus compares one shard's census header against the router's
// snapshot metadata.
func (rt *Router) checkShardCensus(p *server.CuboidsResponse) error {
	if p.MinCount != rt.meta.MinCount() {
		return fmt.Errorf("min count %d, router snapshot has %d", p.MinCount, rt.meta.MinCount())
	}
	if want := len(rt.meta.PathLevels()); p.PathLevels != want {
		return fmt.Errorf("%d path levels, router snapshot has %d", p.PathLevels, want)
	}
	if want := len(rt.meta.Schema.Dims); len(p.Dimensions) != want {
		return fmt.Errorf("%d dimensions, router snapshot has %d", len(p.Dimensions), want)
	}
	for d, h := range rt.meta.Schema.Dims {
		if p.Dimensions[d] != h.Dimension() {
			return fmt.Errorf("dimension %d is %q, router snapshot has %q", d, p.Dimensions[d], h.Dimension())
		}
	}
	return nil
}

// alignedCensus checks two shard censuses list the same cuboids in the same
// (sorted) order, which is what lets merges sum them positionally.
func alignedCensus(a, b []server.CuboidJSON) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d cuboids, other shards have %d", len(b), len(a))
	}
	for i := range a {
		if a[i].Key != b[i].Key {
			return fmt.Errorf("cuboid %d is %s, other shards have %s", i, b[i].Key, a[i].Key)
		}
	}
	return nil
}

// scatterCuboids fetches and parses every shard's /v1/cuboids. parsed[i] is
// nil when shard i failed (transport error or non-200); results[i] has the
// detail.
func (rt *Router) scatterCuboids(ctx context.Context) ([]*server.CuboidsResponse, []shardResult) {
	results := rt.scatter(ctx, "/v1/cuboids", nil)
	parsed := make([]*server.CuboidsResponse, len(results))
	for i, res := range results {
		if res.Err != nil || res.Status != http.StatusOK {
			continue
		}
		var p server.CuboidsResponse
		if err := json.Unmarshal(res.Body, &p); err != nil {
			results[i].Err = fmt.Errorf("unparseable cuboids response: %w", err)
			continue
		}
		parsed[i] = &p
	}
	return parsed, results
}

// mergedCensus is the per-cuboid sum over responding shards plus which
// shards were missing.
type mergedCensus struct {
	cuboids  []server.CuboidJSON
	cells    int
	loadedAt string
	failed   []string
}

// mergeCensus sums responding shards' censuses positionally. It fails when
// no shard responds or when responders disagree on the cuboid lattice
// (mid-rollout fleets must not be silently averaged).
func (rt *Router) mergeCensus(parsed []*server.CuboidsResponse, results []shardResult) (*mergedCensus, error) {
	m := &mergedCensus{}
	var base *server.CuboidsResponse
	for i, p := range parsed {
		if p == nil {
			m.failed = append(m.failed, results[i].Shard)
			continue
		}
		if base == nil {
			base = p
			m.cuboids = make([]server.CuboidJSON, len(p.Cuboids))
			for j, c := range p.Cuboids {
				m.cuboids[j] = server.CuboidJSON{Key: c.Key, ItemLevel: c.ItemLevel, PathLevel: c.PathLevel}
			}
		} else if err := alignedCensus(base.Cuboids, p.Cuboids); err != nil {
			return nil, fmt.Errorf("shard %s: %w", results[i].Shard, err)
		}
		for j, c := range p.Cuboids {
			m.cuboids[j].Cells += c.Cells
			m.cuboids[j].Redundant += c.Redundant
		}
		m.cells += p.Cells
		if p.LoadedAt > m.loadedAt {
			// The fixed "2006-01-02T15:04:05Z" layout sorts lexicographically,
			// so the max string is the most recent shard load.
			m.loadedAt = p.LoadedAt
		}
	}
	if base == nil {
		var detail []string
		for i, res := range results {
			if parsed[i] != nil {
				continue
			}
			if res.Err != nil {
				detail = append(detail, fmt.Sprintf("%s: %v", res.Shard, res.Err))
			} else {
				detail = append(detail, fmt.Sprintf("%s: status %d", res.Shard, res.Status))
			}
		}
		return nil, fmt.Errorf("no shard answered the census scatter (%s)", strings.Join(detail, "; "))
	}
	return m, nil
}

// partial marks a degraded response, listing the shards that did not
// contribute.
func partial(w http.ResponseWriter, failed []string) {
	if len(failed) > 0 {
		w.Header().Set(PartialHeader, strings.Join(failed, ", "))
	}
}

// mergedCuboids scatters /v1/cuboids and merges the answers into the
// single-node response shape.
func (rt *Router) mergedCuboids(w http.ResponseWriter, r *http.Request) (server.CuboidsResponse, bool) {
	parsed, results := rt.scatterCuboids(r.Context())
	if server.TimedOut(w, r) {
		return server.CuboidsResponse{}, false
	}
	m, err := rt.mergeCensus(parsed, results)
	if err != nil {
		server.WriteError(w, gatewayError("%v", err))
		return server.CuboidsResponse{}, false
	}
	resp := server.CuboidsResponse{
		Source:     rt.cfg.Source,
		LoadedAt:   m.loadedAt,
		PathLevels: len(rt.meta.PathLevels()),
		MinCount:   rt.meta.MinCount(),
		Cells:      m.cells,
		Cuboids:    m.cuboids,
	}
	for _, h := range rt.meta.Schema.Dims {
		resp.Dimensions = append(resp.Dimensions, h.Dimension())
	}
	partial(w, m.failed)
	return resp, true
}

// handleCuboids serves the merged cuboid census.
func (rt *Router) handleCuboids(w http.ResponseWriter, r *http.Request) {
	if resp, ok := rt.mergedCuboids(w, r); ok {
		server.WriteJSON(w, http.StatusOK, resp)
	}
}

// handleSummary derives /v1/summary from the merged census exactly as a
// single node derives it from its own, so the output is byte-identical to a
// single server over the unsplit cube (source and loaded_at aside).
func (rt *Router) handleSummary(w http.ResponseWriter, r *http.Request) {
	if resp, ok := rt.mergedCuboids(w, r); ok {
		server.WriteJSON(w, http.StatusOK, resp.Summary())
	}
}

// exceptionItem carries one shard exception with the keys its global
// ordering needs.
type exceptionItem struct {
	x         server.ExceptionJSON
	cuboidKey string
	cell      []hierarchy.NodeID
	rank      flowgraph.Exception // the fields core.CompareExceptions reads
	shardPos  int
}

// handleExceptions merges per-shard top-k exception lists into the global
// top k. Every exception belongs to exactly one shard (its cell's owner)
// and per-shard ranking equals global ranking restricted to that shard, so
// the union of per-shard top-k lists contains the global top k. The merge
// reproduces the single-node order exactly: items are arranged in the cube
// visit order core.TopExceptions starts from (cuboid key, then cell, then
// per-cell mining order — preserved inside each shard's stable-sorted
// list), then stable-sorted with the same comparator, core.CompareExceptions.
func (rt *Router) handleExceptions(w http.ResponseWriter, r *http.Request) {
	k, err := server.ExceptionsK(r.URL.Query())
	if err != nil {
		server.WriteError(w, err)
		return
	}
	results := rt.scatter(r.Context(), "/v1/exceptions?k="+strconv.Itoa(k), nil)
	if server.TimedOut(w, r) {
		return
	}
	var items []exceptionItem
	var failed []string
	responded := 0
	for _, res := range results {
		if res.Err != nil || res.Status != http.StatusOK {
			failed = append(failed, res.Shard)
			continue
		}
		var body struct {
			Exceptions []server.ExceptionJSON `json:"exceptions"`
		}
		if err := json.Unmarshal(res.Body, &body); err != nil {
			server.WriteError(w, gatewayError("shard %s answered an unparseable exceptions response: %v", res.Shard, err))
			return
		}
		responded++
		for pos, x := range body.Exceptions {
			cell, err := rt.exceptionCell(x)
			if err != nil {
				server.WriteError(w, gatewayError("shard %s: %v", res.Shard, err))
				return
			}
			rank := flowgraph.Exception{Support: x.Support, DurationDeviation: x.DurationDeviation, TransitionDeviation: x.TransitionDeviation}
			items = append(items, exceptionItem{x: x, cuboidKey: x.Cuboid, cell: cell, rank: rank, shardPos: pos})
		}
	}
	if responded == 0 {
		server.WriteError(w, gatewayError("no shard answered the exceptions scatter"))
		return
	}
	// Visit-order arrangement. Same-cell items share a shard, and that
	// shard's stable sort preserved their mining order among ties, so shard
	// position is a faithful within-cell tiebreak.
	slices.SortStableFunc(items, func(a, b exceptionItem) int {
		return cmp.Or(strings.Compare(a.cuboidKey, b.cuboidKey), core.CompareCells(a.cell, b.cell), cmp.Compare(a.shardPos, b.shardPos))
	})
	// Ranked over JSON-round-tripped floats: Go's encoder emits the shortest
	// representation that parses back to the same float64, so comparisons
	// agree with the shard's.
	slices.SortStableFunc(items, func(a, b exceptionItem) int {
		return core.CompareExceptions(a.rank, b.rank)
	})
	if k > 0 && len(items) > k {
		items = items[:k]
	}
	out := make([]server.ExceptionJSON, 0, len(items))
	for _, it := range items {
		out = append(out, it.x)
	}
	partial(w, failed)
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"exceptions": out,
	})
}

// exceptionCell resolves an exception's rendered cell names back to the
// values its global visit order sorts by.
func (rt *Router) exceptionCell(x server.ExceptionJSON) ([]hierarchy.NodeID, error) {
	if len(x.Cell) != len(rt.meta.Schema.Dims) {
		return nil, fmt.Errorf("exception cell has %d values, schema has %d dimensions", len(x.Cell), len(rt.meta.Schema.Dims))
	}
	values := make([]hierarchy.NodeID, len(x.Cell))
	for d, name := range x.Cell {
		id, ok := rt.meta.Schema.Dims[d].Lookup(name)
		if !ok {
			return nil, fmt.Errorf("exception cell names unknown %s concept %q", rt.meta.Schema.Dims[d].Dimension(), name)
		}
		values[d] = id
	}
	return values, nil
}
