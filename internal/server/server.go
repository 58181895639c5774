// Package server is the online serving layer over materialized flowcubes:
// an HTTP/JSON API that loads a cube snapshot once (or builds it from a
// path database) and answers concurrent read traffic — the "materialize
// once, query many times" access pattern OLAP assumes, which the one-shot
// CLI tools cannot express.
//
// Endpoints:
//
//	GET  /v1/cell?cell=dim=concept,...&pathlevel=N[&format=dot]  one cell's
//	     flowgraph with roll-up inference
//	GET  /v2/query        OLAP algebra: op=cell|rollup|drilldown|slice|dice
//	     with typed provenance; cells of cuboids the build left out are
//	     reconstructed exactly at query time
//	GET  /v2/partial      what this snapshot holds toward one cell (the cell,
//	     its census count, its fold sources), for a planner running on the
//	     cluster router
//	GET  /v1/summary      cuboid/cell census of the serving snapshot
//	GET  /v1/exceptions   most severe exceptions across the cube
//	GET  /v1/cuboids      full materialized-cuboid census (schemas + counts)
//	GET  /healthz         liveness plus snapshot identity
//	GET  /metrics         request counts, latency histograms, cache ratio
//	POST /admin/reload    re-run the loader and atomically swap the snapshot
//	POST /admin/append    delta-maintain the cube with new records
//	     (core.ApplyDelta on a fork, then an atomic snapshot swap)
//
// The three cell endpoints are adapters over one path (query.go): the raw
// request is looked up in the response cache, else parsed, answered —
// /v1/cell and /v2/query by core.Cube.Answer, the only query planner;
// /v2/partial by core.Cube.Partial, that planner's inputs for one cell —
// and rendered, with one mapping from errors to statuses.
//
// The cube is held behind an atomic snapshot pointer (MVCC: readers load it
// once and are never blocked by writes); queries are answered through a
// per-snapshot LRU response cache with single-flight deduplication. Appends
// and reloads flow through a single-writer group-commit loop
// (internal/ingest): concurrent appends coalesce into one WAL-journaled
// delta fold per group, and the fold lands in a fork of the serving cube and
// an append to the records it owns, so committing costs O(batch), not O(cube) or
// O(database). Requests carry a context
// deadline, are logged, and the listener shuts down gracefully when the
// serve context is cancelled.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"time"

	"flowcube/internal/ingest"
	"flowcube/internal/pathdb"
)

// Config parameterizes the server. The zero value serves with defaults.
type Config struct {
	// RequestTimeout bounds each query request via its context; 0 means
	// DefaultRequestTimeout.
	RequestTimeout time.Duration
	// CacheSize is the per-snapshot response cache capacity in entries;
	// 0 means DefaultCacheSize, negative disables caching.
	CacheSize int
	// Logger receives one line per request and reload events; nil logs to
	// the standard logger. Use log.New(io.Discard, ...) to silence.
	Logger *log.Logger
	// MaxAppendBytes bounds a POST /admin/append request body; 0 means
	// DefaultMaxAppendBytes. Oversized bodies are rejected with 413.
	MaxAppendBytes int64
	// WALPath, when set, journals every accepted append batch to a
	// write-ahead log at this path before folding it, and replays intact
	// entries on startup — an acknowledged append survives a crash that
	// predates the next snapshot swap. Empty disables journaling.
	WALPath string
}

// Defaults for Config zero values.
const (
	DefaultRequestTimeout = 10 * time.Second
	DefaultCacheSize      = 1024
)

// idleTimeout closes a keep-alive connection that has carried no request
// for this long, so an idle client does not hold a goroutine and its
// buffers forever.
const idleTimeout = 2 * time.Minute

// Server serves read traffic over one cube snapshot at a time.
type Server struct {
	cfg     Config
	loader  Loader
	source  string
	holder  holder
	metrics *metrics
	logger  *log.Logger
	handler http.Handler

	// committer is the single-writer commit loop: appends and reloads all
	// run on it, so the snapshot pointer, the records, and the WAL have
	// exactly one writing goroutine.
	committer *ingest.Committer
	// wal journals accepted batches before they fold; nil when
	// Config.WALPath is empty. Touched only on the commit loop.
	wal *ingest.WAL
	// records is the database behind every snapshot's DB, owned by the
	// commit loop: a fold appends to it, into spare capacity past its
	// length when there is some, and snapshots publish capacity-clipped
	// views, so no reader sees an index a fold writes. A fold that fails
	// leaves its length unchanged. Replaced wholesale on reload.
	records []pathdb.Record

	closeOnce sync.Once
	closeErr  error
}

// New loads the initial snapshot through loader and returns a ready server.
// source is a human-readable description of where snapshots come from
// (typically the file path), echoed by /healthz and /v1/summary.
func New(loader Loader, source string, cfg Config) (*Server, error) {
	return NewContext(context.Background(), loader, source, cfg)
}

// NewContext is New with a context covering startup: it cancels the WAL
// scan-and-replay between batches (the loader itself is not yet
// context-aware).
func NewContext(ctx context.Context, loader Loader, source string, cfg Config) (*Server, error) {
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = DefaultCacheSize
	}
	if cfg.MaxAppendBytes == 0 {
		cfg.MaxAppendBytes = DefaultMaxAppendBytes
	}
	s := &Server{
		cfg:     cfg,
		loader:  loader,
		source:  source,
		metrics: newMetrics(),
		logger:  cfg.Logger,
	}
	if s.logger == nil {
		s.logger = log.Default()
	}
	snap, err := s.load()
	if err != nil {
		return nil, err
	}
	s.adopt(snap)
	if cfg.WALPath != "" {
		snap, err = s.openWAL(ctx, snap)
		if err != nil {
			return nil, err
		}
	}
	s.holder.set(snap)
	s.committer = ingest.NewCommitter(ingest.Config{Apply: s.applyGroup})
	s.handler = s.routes()
	return s, nil
}

// adopt takes a freshly loaded snapshot's records as the ones commits
// append to, so an append extends them instead of copying the database, and
// gives the snapshot a clipped view. Commit-loop-only after startup.
func (s *Server) adopt(snap *Snapshot) {
	if snap.DB == nil {
		s.records = nil
		return
	}
	s.records = snap.DB.Records
	snap.DB = &pathdb.DB{Schema: snap.DB.Schema, Records: slices.Clip(s.records)}
}

// openWAL opens (or creates) the journal at Config.WALPath and replays any
// intact entries — batches that were acknowledged before a crash but whose
// snapshot swap never happened — through the ordinary fold path, returning
// the caught-up snapshot. Runs during New, before any request is served, so
// no reader can see the generations in between: each entry folds into a
// fork of the last (an entry that fails is dropped with its fork) and one
// snapshot is built over the final cube.
func (s *Server) openWAL(ctx context.Context, snap *Snapshot) (*Snapshot, error) {
	w, err := ingest.OpenContext(ctx, s.cfg.WALPath)
	if err != nil {
		return nil, fmt.Errorf("server: open WAL %s: %w", s.cfg.WALPath, err)
	}
	if torn := w.Torn(); torn != nil {
		s.logger.Printf("WAL %s: dropped torn tail: %v", s.cfg.WALPath, torn)
	}
	if w.Entries() > 0 {
		if snap.DB == nil {
			_ = w.Close()
			return nil, fmt.Errorf("server: WAL %s holds %d entries but the snapshot has no path database to replay them into",
				s.cfg.WALPath, w.Entries())
		}
		replayed, skipped, entry := 0, 0, 0
		cube, schema := snap.Cube, snap.DB.Schema
		err := w.ReplayContext(ctx, schema, func(batch []pathdb.Record) error {
			entry++
			fr, ferr := s.fold(cube, schema, batch)
			if ferr != nil {
				// Every journaled batch folded cleanly once before it was
				// acknowledged (applyGroup journals after the fold), so a
				// fold failure here means the base snapshot changed out
				// from under the journal — a replaced source file, say.
				// Skip the entry and keep the server bootable rather than
				// refusing to start over state the operator can't fix
				// without deleting the WAL by hand.
				skipped++
				s.logger.Printf("WAL %s: entry %d no longer folds against the loaded snapshot, skipping: %v",
					s.cfg.WALPath, entry-1, ferr)
				return nil
			}
			s.records = fr.records
			cube = fr.cube
			replayed++
			return nil
		})
		if err != nil {
			_ = w.Close()
			return nil, fmt.Errorf("server: replay WAL %s: %w", s.cfg.WALPath, err)
		}
		if replayed > 0 {
			snap = s.successor(snap, cube)
		}
		s.logger.Printf("replayed %d WAL entries from %s (%d skipped): %d cells",
			replayed, s.cfg.WALPath, skipped, snap.Cube.NumCells())
	}
	s.wal = w
	s.metrics.walEntries.Store(int64(w.Entries()))
	s.metrics.walBytes.Store(w.Size())
	return snap, nil
}

// Close drains the commit loop (in-flight appends resolve) and closes the
// WAL. Safe to call more than once; Serve calls it on shutdown.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		if s.committer != nil {
			s.committer.Close()
		}
		if s.wal != nil {
			s.closeErr = s.wal.Close()
		}
	})
	return s.closeErr
}

// load runs the loader once and wraps the result in a timed snapshot.
func (s *Server) load() (*Snapshot, error) {
	start := time.Now()
	cube, info, err := s.loader()
	if err != nil {
		return nil, err
	}
	snap := newSnapshot(cube, s.source, s.cfg.CacheSize, time.Since(start), info.Bytes)
	snap.DB = info.DB
	return snap, nil
}

// Snapshot returns the current serving snapshot.
func (s *Server) Snapshot() *Snapshot { return s.holder.get() }

// Metrics returns a point-in-time copy of the serving metrics, including
// the current snapshot's load gauges.
func (s *Server) Metrics() MetricsSnapshot {
	out := s.metrics.snapshot()
	if s.committer != nil {
		st := s.committer.Stats()
		out.Ingest.Groups = int64(st.Groups)
		out.Ingest.GroupedRequests = int64(st.Requests)
		out.Ingest.Execs = int64(st.Execs)
		out.Ingest.QueueDepth = st.QueueDepth
		out.Ingest.GroupP50 = st.GroupP50
		out.Ingest.GroupMax = st.GroupMax
	}
	if snap := s.holder.get(); snap != nil {
		out.Snapshot = SnapshotMetrics{
			LoadMs:   float64(snap.LoadDuration.Nanoseconds()) / 1e6,
			Bytes:    snap.Bytes,
			LoadedAt: snap.LoadedAt.UTC().Format(time.RFC3339),
		}
		if st, ok := snap.Cube.LazyStats(); ok {
			out.Snapshot.Lazy = &st
		}
	}
	return out
}

// Handler returns the fully assembled HTTP handler (routing, logging,
// metrics, per-request deadlines).
func (s *Server) Handler() http.Handler { return s.handler }

func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	timed := func(pattern string, h http.HandlerFunc) {
		Handle(mux, pattern, WithTimeout(s.cfg.RequestTimeout, h))
	}
	timed("GET /v1/cell", s.serveCached("v1|", answerWith(ParseCellRequest)))
	timed("GET /v1/summary", s.handleSummary)
	timed("GET /v1/exceptions", s.handleExceptions)
	timed("GET /v1/cuboids", s.handleCuboids)
	timed("GET /v2/query", s.serveCached("v2|", answerWith(ParseQueryRequest)))
	timed("GET /v2/partial", s.serveCached("partial|", computePartial))
	Handle(mux, "GET /healthz", s.handleHealthz)
	Handle(mux, "GET /metrics", s.handleMetrics)
	Handle(mux, "POST /admin/reload", s.handleReload)
	Handle(mux, "POST /admin/append", s.handleAppend)
	return Instrument(mux, s.logger, &s.metrics.routes)
}

// WithTimeout bounds h by timeout through the request's context, the one
// deadline every wait on the request path watches: core.Answer, the
// response cache's flight waits and the router's shard calls. h runs on the
// connection's goroutine and writes straight to it; WriteError answers a
// passed deadline 503, and a handler whose work does not watch the context
// asks TimedOut before it writes.
func WithTimeout(timeout time.Duration, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// TimedOut answers 503 and reports true when r's context has ended.
func TimedOut(w http.ResponseWriter, r *http.Request) bool {
	if err := r.Context().Err(); err != nil {
		WriteError(w, err)
		return true
	}
	return false
}

// unmatchedRoute is the metrics key of every request no route registered
// with Handle served: the mux's 404s and 405s share it, so however many
// paths clients try, /metrics holds one entry per route and this one.
const unmatchedRoute = "unmatched"

// statusWriter captures the response status and the route that served it
// for logging and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
	route  string
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Handle registers h on mux for pattern, and has Instrument count its
// requests under pattern.
func Handle(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if sw, ok := w.(*statusWriter); ok {
			sw.route = pattern
		}
		h(w, r)
	})
}

// Instrument wraps a route table with the request log line and records every
// request in routes, under the pattern its route was registered with
// (Handle). The cluster router serves behind the same wrapper.
func Instrument(next http.Handler, logger *log.Logger, routes *RouteHistograms) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK, route: unmatchedRoute}
		next.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		routes.observe(sw.route, sw.status, elapsed)
		logger.Printf("%s %s %d %s", r.Method, r.URL.RequestURI(), sw.status, elapsed.Round(time.Microsecond))
	})
}

// HTTPError carries a status code through the cache-compute path.
type HTTPError struct {
	Status int
	Msg    string
}

func (e *HTTPError) Error() string { return e.Msg }

// errorStatus is the one mapping from errors to statuses: a request whose
// context ended answers 503, an *HTTPError its own status, anything else
// 500. It returns the message the error body carries.
func errorStatus(err error) (int, string) {
	var he *HTTPError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable, "request timed out"
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, "request canceled"
	case errors.As(err, &he):
		return he.Status, err.Error()
	}
	return http.StatusInternalServerError, err.Error()
}

// WriteJSON writes v as the indented JSON body every endpoint answers with.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

// WriteError writes err as the {"error": ...} body, with its status from
// errorStatus.
func WriteError(w http.ResponseWriter, err error) {
	status, msg := errorStatus(err)
	WriteJSON(w, status, map[string]string{"error": msg})
}

// checkLazy reports a lazily loaded snapshot's sticky decode error, if any,
// as a 500. The error-less cube walks (summaries, exceptions, roll-ups)
// degrade to empty answers when a mapped section turns out corrupt; the
// post-render check here keeps the server from passing that degradation off
// as a legitimately small cube.
func checkLazy(w http.ResponseWriter, snap *Snapshot) bool {
	if err := snap.Cube.LazyErr(); err != nil {
		WriteError(w, &HTTPError{http.StatusInternalServerError, err.Error()})
		return false
	}
	return true
}

func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	snap := s.holder.get()
	c := snap.census()
	if !checkLazy(w, snap) || TimedOut(w, r) {
		return
	}
	WriteJSON(w, http.StatusOK, &c.summary)
}

func (s *Server) handleCuboids(w http.ResponseWriter, r *http.Request) {
	snap := s.holder.get()
	c := snap.census()
	if !checkLazy(w, snap) || TimedOut(w, r) {
		return
	}
	WriteJSON(w, http.StatusOK, &c.cuboids)
}

// ExceptionsK parses /v1/exceptions' k parameter: how many exceptions to
// list, 20 by default, 0 for all.
func ExceptionsK(params url.Values) (int, error) {
	kq := params.Get("k")
	if kq == "" {
		return 20, nil
	}
	n, err := strconv.Atoi(kq)
	if err != nil || n < 0 {
		return 0, &HTTPError{http.StatusBadRequest, fmt.Sprintf("bad k %q", kq)}
	}
	return n, nil
}

func (s *Server) handleExceptions(w http.ResponseWriter, r *http.Request) {
	k, err := ExceptionsK(r.URL.Query())
	if err != nil {
		WriteError(w, err)
		return
	}
	snap := s.holder.get()
	resp := renderExceptions(snap.Cube, k)
	if !checkLazy(w, snap) || TimedOut(w, r) {
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"exceptions": resp,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.holder.get()
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"source":    snap.Source,
		"loaded_at": snap.LoadedAt.UTC().Format(time.RFC3339),
		"cells":     snap.Cube.NumCells(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Metrics())
}

// handleReload re-runs the loader and swaps the serving snapshot. In-flight
// queries keep the snapshot (and cache) they started with. The swap runs on
// the commit loop (committer.Exec), serialized against append groups, so the
// snapshot pointer and the records keep a single writer. Reload discards
// records appended since the last load — it rebuilds from the loader's
// source of truth — so the WAL is reset too: replaying the discarded appends
// on a later restart would double-apply them. Batches parsed against the
// pre-reload snapshot are fenced off by the SchemaGen bump (409 at commit).
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	var snap *Snapshot
	var loadErr error
	err := s.committer.Exec(func() {
		next, err := s.load()
		if err != nil {
			loadErr = err
			return
		}
		prev := s.holder.get()
		next.Gen = prev.Gen + 1
		next.SchemaGen = prev.SchemaGen + 1
		s.adopt(next)
		if s.wal != nil {
			if err := s.wal.Reset(); err != nil {
				loadErr = fmt.Errorf("reset WAL after reload: %w", err)
				return
			}
			s.metrics.walEntries.Store(0)
			s.metrics.walBytes.Store(s.wal.Size())
		}
		s.holder.set(next)
		snap = next
	})
	if err != nil {
		WriteError(w, &HTTPError{http.StatusServiceUnavailable, "server is shutting down"})
		return
	}
	if loadErr != nil {
		WriteError(w, fmt.Errorf("reload: %w", loadErr))
		return
	}
	s.metrics.reloads.Add(1)
	s.logger.Printf("reloaded snapshot from %s: %d cells, %d bytes in %s",
		snap.Source, snap.Cube.NumCells(), snap.Bytes, snap.LoadDuration.Round(time.Microsecond))
	// A lazy open maps the file and decodes nothing, so mapped_bytes is the
	// whole snapshot and decoded_bytes starts near zero; an eager open holds
	// the full decoded cube, reported as decoded_bytes with nothing mapped.
	lazy, mapped, decoded := false, int64(0), snap.Bytes
	if st, ok := snap.Cube.LazyStats(); ok {
		lazy, mapped, decoded = true, st.MappedBytes, st.DecodedBytes
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":         "reloaded",
		"cells":          snap.Cube.NumCells(),
		"loaded_at":      snap.LoadedAt.UTC().Format(time.RFC3339),
		"load_ms":        float64(snap.LoadDuration.Nanoseconds()) / 1e6,
		"snapshot_bytes": snap.Bytes,
		"lazy":           lazy,
		"mapped_bytes":   mapped,
		"decoded_bytes":  decoded,
	})
}

// Serve accepts connections on ln until ctx is cancelled, then shuts down
// gracefully (draining in-flight requests, bounded by RequestTimeout) and
// closes the server.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := newHTTPServer(s.handler)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	var err error
	select {
	case err = <-errc:
	case <-ctx.Done():
		// WithoutCancel: ctx is already done here; the drain deadline must
		// not inherit its cancellation or Shutdown would return immediately.
		shutdownCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), s.cfg.RequestTimeout)
		err = srv.Shutdown(shutdownCtx)
		cancel()
		<-errc // Serve has returned http.ErrServerClosed
	}
	// The listener or shutdown error is the actionable one.
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	return err
}

// newHTTPServer is the http.Server flowserve listens with. A request's own
// deadline comes from WithTimeout, so no read or write timeout cuts into
// it; the connection is bounded while it sends headers and while it idles
// between requests.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       idleTimeout,
	}
}
