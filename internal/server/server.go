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
// a copy-on-write record store, so committing costs O(batch), not O(cube) or
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
	"strconv"
	"sync"
	"time"

	"flowcube/internal/core"
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
	// PostAppend, when set, transforms the delta-maintained cube before it
	// becomes the serving snapshot. Shard servers use it to drop state the
	// shard does not own after an append (cluster.ShardFilter); it must
	// return a cube safe to serve (the input is a fork only the commit loop
	// holds).
	PostAppend func(*core.Cube) *core.Cube
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
	// run on it, so the snapshot pointer, the record store, and the WAL
	// have exactly one writing goroutine.
	committer *ingest.Committer
	// wal journals accepted batches before they fold; nil when
	// Config.WALPath is empty. Touched only on the commit loop.
	wal *ingest.WAL
	// store is the copy-on-write record store behind every snapshot's DB:
	// commits append into reserved tail capacity while readers keep their
	// capacity-clamped views. Replaced wholesale on reload (commit loop
	// only).
	store *pathdb.Store

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
	s.installStore(snap)
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

// installStore rehouses a freshly loaded snapshot's records in a new
// copy-on-write store, so subsequent append commits extend the store instead
// of copying the database. Commit-loop-only after startup.
func (s *Server) installStore(snap *Snapshot) {
	if snap.DB == nil {
		s.store = nil
		return
	}
	s.store = pathdb.NewStore(snap.DB.Records)
	snap.DB = &pathdb.DB{Schema: snap.DB.Schema, Records: s.store.Committed()}
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
			s.store.Commit(fr.records)
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
// metrics, per-request timeouts).
func (s *Server) Handler() http.Handler { return s.handler }

func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	timeout := func(h http.HandlerFunc) http.Handler {
		// TimeoutHandler propagates the deadline through r.Context() and
		// answers 503 when a query overruns it.
		return http.TimeoutHandler(h, s.cfg.RequestTimeout,
			`{"error":"request timed out"}`)
	}
	mux.Handle("GET /v1/cell", timeout(s.serveCached("v1|", answerWith(ParseCellRequest))))
	mux.Handle("GET /v1/summary", timeout(s.handleSummary))
	mux.Handle("GET /v1/exceptions", timeout(s.handleExceptions))
	mux.Handle("GET /v1/cuboids", timeout(s.handleCuboids))
	mux.Handle("GET /v2/query", timeout(s.serveCached("v2|", answerWith(ParseQueryRequest))))
	mux.Handle("GET /v2/partial", timeout(s.serveCached("partial|", computePartial)))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /admin/reload", s.handleReload)
	mux.HandleFunc("POST /admin/append", s.handleAppend)
	return Instrument(mux, s.logger, &s.metrics.routes)
}

// statusWriter captures the response status for logging and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Instrument wraps a route table with the request log line and records every
// request in routes, keyed by method+path (query strings excluded). The
// cluster router serves behind the same wrapper.
func Instrument(next http.Handler, logger *log.Logger, routes *RouteHistograms) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		routes.observe(r.Method+" "+r.URL.Path, sw.status, elapsed)
		logger.Printf("%s %s %d %s", r.Method, r.URL.RequestURI(), sw.status, elapsed.Round(time.Microsecond))
	})
}

// HTTPError carries a status code through the cache-compute path. Any other
// error answers 500.
type HTTPError struct {
	Status int
	Msg    string
}

func (e *HTTPError) Error() string { return e.Msg }

func errorStatus(err error) int {
	var he *HTTPError
	if errors.As(err, &he) {
		return he.Status
	}
	return http.StatusInternalServerError
}

// WriteJSON writes v as the indented JSON body every endpoint answers with.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

// WriteError writes err as the {"error": ...} body, with the status an
// *HTTPError in its chain names.
func WriteError(w http.ResponseWriter, err error) {
	WriteJSON(w, errorStatus(err), map[string]string{"error": err.Error()})
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
	resp := renderCuboids(snap).Summary()
	if !checkLazy(w, snap) {
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCuboids(w http.ResponseWriter, r *http.Request) {
	snap := s.holder.get()
	resp := renderCuboids(snap)
	if !checkLazy(w, snap) {
		return
	}
	WriteJSON(w, http.StatusOK, resp)
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
	if !checkLazy(w, snap) {
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
// snapshot pointer and record store keep a single writer. Reload discards
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
		s.installStore(next)
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
	err := Serve(ctx, ln, s.handler, s.cfg.RequestTimeout)
	// The listener or shutdown error is the actionable one.
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	return err
}

// Serve serves h on ln until ctx is cancelled, then shuts down gracefully,
// draining in-flight requests for at most drain.
func Serve(ctx context.Context, ln net.Listener, h http.Handler, drain time.Duration) error {
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// WithoutCancel: ctx is already done here; the drain deadline must
		// not inherit its cancellation or Shutdown would return immediately.
		shutdownCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), drain)
		defer cancel()
		err := srv.Shutdown(shutdownCtx)
		<-errc // Serve has returned http.ErrServerClosed
		return err
	}
}
