package server

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"flowcube/internal/core"
)

// Serving metrics, stdlib only: per-route request counts, error counts and
// a fixed-bucket latency histogram, plus cube-cache counters. Exposed as
// plain JSON on GET /metrics; the histogram buckets are cumulative-friendly
// (each bucket counts observations at or below its bound) so p50/p99 can be
// estimated server-side without retaining samples.

// latencyBoundsMs are the histogram bucket upper bounds in milliseconds;
// an implicit overflow bucket catches everything slower.
var latencyBoundsMs = []float64{
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 1000,
}

type routeStats struct {
	count   int64
	errors  int64 // responses with status >= 400
	totalNs int64
	buckets []int64 // len(latencyBoundsMs)+1, last = overflow
	maxNs   int64
}

// RouteHistograms are the per-route request counters behind the routes of
// GET /metrics: count, errors and the latency histogram. Server and the
// cluster router each hand theirs to Instrument. The zero value is ready to
// use.
type RouteHistograms struct {
	mu     sync.Mutex
	routes map[string]*routeStats
}

type metrics struct {
	start time.Time

	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	reloads     atomic.Int64

	// Streaming-append gauges: total appends plus the last commit
	// (POST /admin/append), nil before the first.
	appends    atomic.Int64
	lastCommit atomic.Pointer[commitRecord]

	// Ingest write-path gauges. The WAL itself is touched only on the
	// commit loop, so its counters are mirrored here atomically for
	// /metrics readers; the committer's own stats are mutex-guarded and
	// read directly (Server.Metrics).
	staleConflicts atomic.Int64
	walEntries     atomic.Int64
	walBytes       atomic.Int64

	routes RouteHistograms
}

// commitRecord is what /metrics reports of one commit: its fold's
// duration and statistics, and how many requests it grouped.
type commitRecord struct {
	delta     time.Duration
	stats     core.DeltaStats
	groupSize int
}

// recordAppend stores one commit.
func (m *metrics) recordAppend(d time.Duration, stats *core.DeltaStats, groupSize int) {
	m.appends.Add(1)
	m.lastCommit.Store(&commitRecord{delta: d, stats: *stats, groupSize: groupSize})
}

func newMetrics() *metrics {
	return &metrics{start: time.Now()}
}

// observe records one served request.
func (h *RouteHistograms) observe(route string, status int, d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.routes == nil {
		h.routes = make(map[string]*routeStats)
	}
	rs := h.routes[route]
	if rs == nil {
		rs = &routeStats{buckets: make([]int64, len(latencyBoundsMs)+1)}
		h.routes[route] = rs
	}
	rs.count++
	if status >= 400 {
		rs.errors++
	}
	rs.totalNs += d.Nanoseconds()
	if d.Nanoseconds() > rs.maxNs {
		rs.maxNs = d.Nanoseconds()
	}
	ms := float64(d.Nanoseconds()) / 1e6
	i := sort.SearchFloat64s(latencyBoundsMs, ms)
	rs.buckets[i]++
}

// quantileMs estimates a latency quantile from the histogram: the upper
// bound of the bucket holding the observation of nearest rank ⌈q·n⌉ (the
// recorded maximum for the overflow bucket).
func (rs *routeStats) quantileMs(q float64) float64 {
	if rs.count == 0 {
		return 0
	}
	rank := min(max(int64(math.Ceil(q*float64(rs.count))), 1), rs.count)
	var cum int64
	for i, n := range rs.buckets {
		cum += n
		if cum >= rank {
			if i < len(latencyBoundsMs) {
				return latencyBoundsMs[i]
			}
			return float64(rs.maxNs) / 1e6
		}
	}
	return float64(rs.maxNs) / 1e6
}

// RouteMetrics is the JSON shape of one route's counters.
type RouteMetrics struct {
	Count   int64            `json:"count"`
	Errors  int64            `json:"errors"`
	MeanMs  float64          `json:"mean_ms"`
	P50Ms   float64          `json:"p50_ms"`
	P99Ms   float64          `json:"p99_ms"`
	MaxMs   float64          `json:"max_ms"`
	Buckets map[string]int64 `json:"buckets_ms_le,omitempty"`
}

// CacheMetrics is the JSON shape of the response-cache counters.
type CacheMetrics struct {
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	HitRatio float64 `json:"hit_ratio"`
}

// SnapshotMetrics are the gauges of the currently served snapshot: how long
// the loader took and how many serialized bytes it read. Server.Metrics
// fills them from the snapshot holder; they reset on every reload.
type SnapshotMetrics struct {
	LoadMs   float64 `json:"load_ms"`
	Bytes    int64   `json:"snapshot_bytes"`
	LoadedAt string  `json:"loaded_at"`
	// Lazy carries the mmap/LRU gauges of a lazily opened snapshot; absent
	// for eager snapshots. Unlike the request counters they are
	// per-snapshot: decoded_bytes against mapped_bytes is the RSS the lazy
	// open saved.
	Lazy *core.LazyStats `json:"lazy,omitempty"`
}

// AppendMetrics are the streaming-append counters: how many deltas have
// been applied and what the most recent one cost.
type AppendMetrics struct {
	Count             int64   `json:"count"`
	LastDeltaMs       float64 `json:"last_delta_ms"`
	LastCellsTouched  int64   `json:"last_cells_touched"`
	LastCellsAdmitted int64   `json:"last_cells_admitted"`
	// LastReminedRestricted and LastPrefixesRemined report the last fold's
	// batch-proportional exception re-mining: how many touched cells took
	// the restricted path and how many moved flowgraph prefixes they
	// re-aggregated.
	LastReminedRestricted int64 `json:"last_cells_remined_restricted"`
	LastPrefixesRemined   int64 `json:"last_prefixes_remined"`
	// LastCellsCopied reports what the last fold copied out of the
	// snapshot it forked: the cells it wrote, each with a new flowgraph.
	LastCellsCopied int64 `json:"last_cells_copied"`
}

// IngestMetrics are the write-path gauges: group-commit shape (how well
// concurrent appends coalesce), WAL depth, and admission conflicts.
type IngestMetrics struct {
	// Groups and GroupedRequests count commit groups and the append
	// requests folded across them; GroupedRequests/Groups is the achieved
	// coalescing factor.
	Groups          int64 `json:"groups"`
	GroupedRequests int64 `json:"grouped_requests"`
	GroupP50        int   `json:"group_p50"`
	GroupMax        int   `json:"group_max"`
	LastGroupSize   int64 `json:"last_group_size"`
	// QueueDepth is the number of submitted-but-uncommitted items right now.
	QueueDepth int `json:"queue_depth"`
	// Execs counts reloads run on the commit loop.
	Execs int64 `json:"execs"`
	// WALEntries and WALBytes gauge the journal since the last reset.
	WALEntries int64 `json:"wal_entries"`
	WALBytes   int64 `json:"wal_bytes"`
	// StaleConflicts counts appends rejected because a reload swapped the
	// schema generation between parse and commit (409, retryable).
	StaleConflicts int64 `json:"stale_conflicts"`
}

// MetricsSnapshot is the GET /metrics response body.
type MetricsSnapshot struct {
	UptimeSeconds float64                 `json:"uptime_seconds"`
	Reloads       int64                   `json:"reloads"`
	Appends       AppendMetrics           `json:"appends"`
	Ingest        IngestMetrics           `json:"ingest"`
	Snapshot      SnapshotMetrics         `json:"snapshot"`
	Cache         CacheMetrics            `json:"cache"`
	Routes        map[string]RouteMetrics `json:"routes"`
}

// snapshot captures every counter for serialization.
func (m *metrics) snapshot() MetricsSnapshot {
	out := MetricsSnapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Reloads:       m.reloads.Load(),
		Appends:       AppendMetrics{Count: m.appends.Load()},
		Ingest: IngestMetrics{
			WALEntries:     m.walEntries.Load(),
			WALBytes:       m.walBytes.Load(),
			StaleConflicts: m.staleConflicts.Load(),
		},
		Routes: m.routes.Snapshot(),
	}
	if last := m.lastCommit.Load(); last != nil {
		a := &out.Appends
		a.LastDeltaMs = float64(last.delta.Nanoseconds()) / 1e6
		a.LastCellsTouched = int64(last.stats.CellsTouched)
		a.LastCellsAdmitted = int64(last.stats.CellsAdmitted)
		a.LastReminedRestricted = int64(last.stats.CellsReminedRestricted)
		a.LastPrefixesRemined = int64(last.stats.PrefixesRemined)
		a.LastCellsCopied = int64(last.stats.CellsCopied)
		out.Ingest.LastGroupSize = int64(last.groupSize)
	}
	hits, misses := m.cacheHits.Load(), m.cacheMisses.Load()
	out.Cache = CacheMetrics{Hits: hits, Misses: misses}
	if hits+misses > 0 {
		out.Cache.HitRatio = float64(hits) / float64(hits+misses)
	}
	return out
}

// Snapshot returns every route's counters in their JSON shape.
func (h *RouteHistograms) Snapshot() map[string]RouteMetrics {
	out := make(map[string]RouteMetrics)
	h.mu.Lock()
	defer h.mu.Unlock()
	for route, rs := range h.routes {
		rm := RouteMetrics{
			Count:   rs.count,
			Errors:  rs.errors,
			P50Ms:   rs.quantileMs(0.50),
			P99Ms:   rs.quantileMs(0.99),
			MaxMs:   float64(rs.maxNs) / 1e6,
			Buckets: make(map[string]int64, len(rs.buckets)),
		}
		if rs.count > 0 {
			rm.MeanMs = float64(rs.totalNs) / float64(rs.count) / 1e6
		}
		for i, n := range rs.buckets {
			if n == 0 {
				continue
			}
			if i < len(latencyBoundsMs) {
				rm.Buckets[formatBound(latencyBoundsMs[i])] = n
			} else {
				rm.Buckets["+inf"] = n
			}
		}
		out[route] = rm
	}
	return out
}

// formatBound renders a bucket bound as a stable JSON key: 0.05 → "0.05",
// 1 → "1".
func formatBound(ms float64) string {
	return strconv.FormatFloat(ms, 'g', -1, 64)
}
