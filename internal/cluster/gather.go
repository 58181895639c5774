package cluster

// Scatter-gather reads and fan-out writes: the census endpoints
// (/v1/cuboids, /v1/summary) merge per-shard counts positionally over the
// validated common cuboid lattice, /v1/exceptions re-ranks the union of
// per-shard top-k lists with the exact single-node comparator, and
// /admin/append fans the batch to every shard with all-or-nothing
// reporting. Census and exception reads degrade to the responding subset
// (flagged via the X-Cluster-Partial header) when shards are down; cell
// queries and appends never degrade — a missing shard could hide the
// answer, or diverge the fleet.

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
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
	results := rt.scatter(ctx, http.MethodGet, "/v1/cuboids", nil, "", rt.cfg.ShardTimeout, nil)
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
	results := rt.scatter(r.Context(), http.MethodGet, "/v1/exceptions?k="+strconv.Itoa(k), nil, "", rt.cfg.ShardTimeout, nil)
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

// handleAppend validates the batch against the router's schema and fans it
// to every shard: each shard folds the full batch into its replicated
// database and keeps only the cells it owns (server.Config.PostAppend with
// ShardFilter). Reporting is all-or-nothing — any shard failure answers 502
// with per-shard detail, because a partially applied batch leaves the fleet
// divergent until it is re-split.
func (rt *Router) handleAppend(w http.ResponseWriter, r *http.Request) {
	if rt.meta.Config.Tau > 0 {
		server.WriteError(w, &server.HTTPError{Status: http.StatusConflict,
			Msg: "cluster append is not supported with redundancy marking (tau > 0): re-marking needs item-lattice parents that live on other shards; rebuild and re-split instead"})
		return
	}
	// Reject garbage before any shard sees it: a batch that fails to parse
	// here would fail on every shard, and fanning it out just multiplies the
	// error. The schema is replicated, so parsing against the router's copy
	// is authoritative, and the single node's reader gives its answers
	// exactly: parsing THROUGH MaxBytesReader, a parse failure on the
	// truncated prefix answers 400 before the size violation answers 413.
	// The tee captures the body for the shard fan-out below.
	var buf bytes.Buffer
	batchDB, err := server.ReadAppendBody(io.TeeReader(http.MaxBytesReader(w, r.Body, rt.cfg.MaxAppendBytes), &buf), rt.meta.Schema)
	if err != nil {
		server.WriteError(w, err)
		return
	}

	// No per-shard timeout: cutting a shard off mid-append guarantees the
	// divergence the all-or-nothing report exists to flag. The client's
	// request context still bounds the whole fan-out.
	results := rt.scatter(r.Context(), http.MethodPost, "/admin/append", buf.Bytes(), "text/plain; charset=utf-8", 0, nil)
	reports, ok := shardReports(results)
	if ok != len(results) {
		server.WriteJSON(w, http.StatusBadGateway, map[string]any{
			"error":  fmt.Sprintf("append applied on %d of %d shards; the fleet may be divergent — re-split the snapshot before trusting merged answers", ok, len(results)),
			"shards": reports,
		})
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"status":  "appended",
		"records": batchDB.Len(),
		"shards":  reports,
	})
}

// shardReport is one shard's outcome in an all-or-nothing fan-out response.
type shardReport struct {
	Shard    string          `json:"shard"`
	Status   int             `json:"status,omitempty"`
	Response json.RawMessage `json:"response,omitempty"`
	Error    string          `json:"error,omitempty"`
}

// shardReports renders a fan-out's results and counts the shards that
// answered 200.
func shardReports(results []shardResult) (reports []shardReport, ok int) {
	reports = make([]shardReport, len(results))
	for i, res := range results {
		sr := shardReport{Shard: res.Shard, Status: res.Status}
		switch {
		case res.Err != nil:
			sr.Error = res.Err.Error()
		case res.Status != http.StatusOK:
			sr.Error = string(res.Body)
		default:
			sr.Response = json.RawMessage(res.Body)
			ok++
		}
		reports[i] = sr
	}
	return reports, ok
}

// handleReload fans POST /admin/reload to every shard with the same
// all-or-nothing reporting as append.
func (rt *Router) handleReload(w http.ResponseWriter, r *http.Request) {
	results := rt.scatter(r.Context(), http.MethodPost, "/admin/reload", nil, "", 0, nil)
	reports, ok := shardReports(results)
	status, code := "reloaded", http.StatusOK
	if ok != len(results) {
		status, code = "partial", http.StatusBadGateway
	}
	server.WriteJSON(w, code, map[string]any{
		"status": status,
		"shards": reports,
	})
}
