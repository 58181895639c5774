package cluster

// The stateless scatter-gather router: the single-node HTTP read API of
// internal/server, served over a fleet of shard servers. The router holds
// only a snapshot's metadata (core.LoadMeta) — schema, plan, thresholds —
// which is enough to parse requests, plan cell queries over cells fetched
// from the shards that own them (remote.go), and merge scattered census
// answers deterministically. It keeps no cells, so any number of router
// replicas can front the same fleet.
//
// Response compatibility is a hard contract: for a cube and its split
// shards, the router's /v1/cell, /v2/query (op=cell|rollup), /v1/summary,
// /v1/exceptions and /v1/cuboids bodies are byte-identical to a single
// flowserve over the unsplit cube (modulo the instance-specific source and
// loaded_at fields of the census endpoints). Cell queries get there by
// construction — internal/server's parsers, core's planner and
// internal/server's renderers, over a remote cell source; the census merges
// (gather.go) by the same sort comparators. The tests assert the bytes.

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flowcube/internal/core"
	"flowcube/internal/server"
)

// shardTimeout bounds each shard call within a scattered query.
const shardTimeout = 5 * time.Second

// PartialHeader is set on degraded scatter-gather responses (census and
// exception queries answered by a subset of shards); its value lists the
// unreachable shard URLs.
const PartialHeader = "X-Cluster-Partial"

// RouterConfig parameterizes the router. The zero value serves with
// defaults.
type RouterConfig struct {
	// Source is echoed as the source field of census responses; empty means
	// "cluster".
	Source string
	// RequestTimeout bounds each routed query end to end; 0 means
	// server.DefaultRequestTimeout.
	RequestTimeout time.Duration
	// Logger receives one line per request; nil logs to the standard
	// logger.
	Logger *log.Logger
}

// Router fronts a fleet of shard servers behind the single-node API.
type Router struct {
	meta    *core.Cube
	part    *Partitioner
	shards  []string
	cfg     RouterConfig
	client  *http.Client
	logger  *log.Logger
	handler http.Handler

	start       time.Time
	shardErrors atomic.Int64
	routes      server.RouteHistograms
}

// NewRouter builds a router over shard base URLs (shard i of the split
// serves shardURLs[i] — order is the partitioning, so it must match the
// splitter's). meta is the unsplit snapshot's metadata, typically from
// core.LoadMeta over the original snapshot (any shard snapshot works too:
// the metadata sections are replicated).
func NewRouter(meta *core.Cube, shardURLs []string, cfg RouterConfig) (*Router, error) {
	if meta == nil {
		return nil, fmt.Errorf("cluster: router needs snapshot metadata")
	}
	part, err := NewPartitioner(meta.Schema, len(shardURLs))
	if err != nil {
		return nil, err
	}
	if cfg.Source == "" {
		cfg.Source = "cluster"
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = server.DefaultRequestTimeout
	}
	rt := &Router{
		meta:   meta,
		part:   part,
		shards: make([]string, len(shardURLs)),
		cfg:    cfg,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 32}},
		logger: cfg.Logger,
		start:  time.Now(),
	}
	for i, u := range shardURLs {
		rt.shards[i] = strings.TrimRight(u, "/")
	}
	if rt.logger == nil {
		rt.logger = log.Default()
	}
	rt.handler = rt.routeTable()
	return rt, nil
}

// Handler returns the fully assembled HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.handler }

func (rt *Router) routeTable() http.Handler {
	mux := http.NewServeMux()
	timed := func(pattern string, h http.HandlerFunc) {
		server.Handle(mux, pattern, server.WithTimeout(rt.cfg.RequestTimeout, h))
	}
	timed("GET /v1/cell", rt.handleQuery(server.ParseCellRequest))
	timed("GET /v2/query", rt.handleQuery(server.ParseQueryRequest))
	timed("GET /v1/summary", rt.handleSummary)
	timed("GET /v1/exceptions", rt.handleExceptions)
	timed("GET /v1/cuboids", rt.handleCuboids)
	server.Handle(mux, "GET /healthz", rt.handleHealthz)
	server.Handle(mux, "GET /metrics", rt.handleMetrics)
	return server.Instrument(mux, rt.logger, &rt.routes)
}

// gatewayError is a 502: a shard the answer needs failed or talked nonsense.
func gatewayError(format string, args ...any) error {
	return &server.HTTPError{Status: http.StatusBadGateway, Msg: fmt.Sprintf(format, args...)}
}

// shardResult is one shard call's outcome: transport errors in Err, HTTP
// outcomes (any status) in Status/Body.
type shardResult struct {
	Shard  string
	Status int
	Body   []byte
	Err    error
}

// get performs one shard GET, bounded by shardTimeout.
func (rt *Router) get(ctx context.Context, shard, pathQuery string) shardResult {
	res := shardResult{Shard: shard}
	ctx, cancel := context.WithTimeout(ctx, shardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, shard+pathQuery, nil)
	if err != nil {
		res.Err = err
		return res
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		rt.shardErrors.Add(1)
		res.Err = err
		return res
	}
	defer resp.Body.Close() //nolint:errcheck // read side; close errors carry no information
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		rt.shardErrors.Add(1)
		res.Err = err
		return res
	}
	res.Status = resp.StatusCode
	res.Body = b
	return res
}

// scatter fans one GET to the shards concurrently, returning results
// indexed by shard. A non-nil want picks the shards to ask; the other slots
// stay zero.
func (rt *Router) scatter(ctx context.Context, pathQuery string, want func(shard int) bool) []shardResult {
	out := make([]shardResult, len(rt.shards))
	var wg sync.WaitGroup
	for i, shard := range rt.shards {
		if want != nil && !want(i) {
			continue
		}
		wg.Add(1)
		go func(i int, shard string) {
			defer wg.Done()
			out[i] = rt.get(ctx, shard, pathQuery)
		}(i, shard)
	}
	wg.Wait()
	return out
}

// handleMetrics reports the router's own counters; shard-level metrics live
// on the shards.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"uptime_seconds": time.Since(rt.start).Seconds(),
		"shards":         rt.shards,
		"shard_errors":   rt.shardErrors.Load(),
		"routes":         rt.routes.Snapshot(),
	})
}

// handleHealthz aggregates shard liveness: 200 when every shard answers its
// own /healthz, 503 with per-shard detail otherwise.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	results := rt.scatter(r.Context(), "/healthz", nil)
	type shardHealth struct {
		Shard  string `json:"shard"`
		Status string `json:"status"`
		Error  string `json:"error,omitempty"`
	}
	out := make([]shardHealth, len(results))
	healthy := 0
	for i, res := range results {
		sh := shardHealth{Shard: res.Shard}
		switch {
		case res.Err != nil:
			sh.Status = "unreachable"
			sh.Error = res.Err.Error()
		case res.Status != http.StatusOK:
			sh.Status = "unhealthy"
			sh.Error = fmt.Sprintf("status %d", res.Status)
		default:
			sh.Status = "ok"
			healthy++
		}
		out[i] = sh
	}
	status, code := "ok", http.StatusOK
	if healthy < len(results) {
		status, code = "degraded", http.StatusServiceUnavailable
	}
	server.WriteJSON(w, code, map[string]any{
		"status": status,
		"source": rt.cfg.Source,
		"shards": out,
	})
}
