package server

// POST /admin/append: streaming appends into the serving cube, the read
// side of the ingest write path (DESIGN.md §11). The handler parses the
// body against the serving schema and submits the batch to the group
// committer (internal/ingest); the commit loop folds each group's batches
// with one core.ApplyDelta (exact against a full rebuild over the union)
// into a fork of the serving cube, journals the folded batches in the WAL,
// and swaps the snapshot pointer atomically.
// Readers are never blocked: they stay on the snapshot they loaded. A commit
// costs O(batch) on both sides — the record store is copy-on-write
// (pathdb.Store), and the fork shares every cell and flowgraph node with the
// serving cube, copying only the cells the batch lands in and the nodes on
// its paths (core.Cube.Fork). A fold that fails, or whose journal write
// fails, is dropped; the serving snapshot was never touched.

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"flowcube/internal/core"
	"flowcube/internal/ingest"
	"flowcube/internal/pathdb"
)

// DefaultMaxAppendBytes bounds an append request body when
// Config.MaxAppendBytes is zero.
const DefaultMaxAppendBytes = 64 << 20

// handleAppend parses the body as path-database text records (one
// `dim,...|loc:dur ...` line each, against the serving schema) and blocks
// until the commit group containing the batch has journaled, folded, and
// swapped — every request in a group is answered with the same committed
// snapshot's state.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	// Parse before submitting: reading the request is network I/O paced by
	// the client, and a slow peer must not stall the commit loop. The parse
	// runs against the current snapshot's schema; the batch carries that
	// snapshot's SchemaGen so a reload landing in between surfaces as a
	// clean retryable conflict instead of folding against a swapped schema.
	snap := s.holder.get()
	if snap.DB == nil {
		WriteError(w, errNoAppendDB)
		return
	}
	batchDB, err := ReadAppendBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxAppendBytes), snap.DB.Schema)
	if err != nil {
		WriteError(w, err)
		return
	}

	p, err := s.committer.Submit(batchDB.Records, snap.SchemaGen)
	if err != nil {
		if errors.Is(err, ingest.ErrQueueFull) {
			// Admission control: the commit queue is at ingest.Config.MaxPending.
			// The batch was not accepted — shed load and invite a retry.
			w.Header().Set("Retry-After", "1")
			WriteError(w, &HTTPError{http.StatusServiceUnavailable,
				"append queue is full; retry after the backlog drains"})
			return
		}
		// ErrClosed: the server is draining for shutdown.
		WriteError(w, &HTTPError{http.StatusServiceUnavailable, "server is shutting down"})
		return
	}
	resp, err := p.Wait()
	if err != nil {
		WriteError(w, err)
		return
	}
	WriteJSON(w, http.StatusOK, resp)
}

// ReadAppendBody parses an append request body as path-database text
// records against schema. The caller wraps the body in http.MaxBytesReader
// first; an oversized body answers 413, a parse error or an empty batch 400,
// each as an *HTTPError.
func ReadAppendBody(body io.Reader, schema *pathdb.Schema) (*pathdb.DB, error) {
	db, err := pathdb.Read(body, schema)
	if err != nil {
		// An oversized body is a hard protocol violation (413), not a parse
		// error: MaxBytesReader has already closed the connection's intake,
		// and retrying the same payload cannot succeed.
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return nil, &HTTPError{http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds the %d-byte append limit", mbe.Limit)}
		}
		return nil, &HTTPError{http.StatusBadRequest, err.Error()}
	}
	if db.Len() == 0 {
		return nil, &HTTPError{http.StatusBadRequest,
			"empty batch: body must hold at least one record line (dim,...|loc:dur ...)"}
	}
	return db, nil
}

var errNoAppendDB = &HTTPError{http.StatusConflict,
	"serving snapshot has no path database (loaded from a saved cube); append needs a database-backed snapshot"}

// errStaleSchema is the parse-then-commit race surfaced cleanly: the
// snapshot was reloaded between parsing a batch and folding it, so the
// parsed node ids may no longer mean the same thing. 409 with a retry hint.
var errStaleSchema = &HTTPError{http.StatusConflict,
	"snapshot reloaded while the append was in flight; re-read the serving schema and retry the batch"}

// applyGroup is the committer's apply callback: it folds one commit group —
// one ApplyDelta over the concatenated records, then journal every folded
// batch in the WAL, fsync once, swap the snapshot — and resolves every
// request in the group. It runs on the commit loop, the only goroutine
// that writes the snapshot pointer, the record store, or the WAL.
//
// Ordering is fold-then-journal: a batch that cannot fold is never
// journaled, so the WAL only ever holds batches that folded cleanly once,
// and a fold failure is reported to the client with nothing durable left
// behind to replay (journal-first would brick startup on a deterministic
// fold error, or double-apply on a client retry). Durability is unchanged —
// a request is resolved only after its WAL entry is fsynced.
func (s *Server) applyGroup(group []*ingest.Pending) {
	snap := s.holder.get()

	// Admission: batches parsed against a reloaded-away schema conflict;
	// everything else in the group commits together.
	live := group[:0:0]
	for _, p := range group {
		if snap.DB == nil {
			p.Resolve(nil, errNoAppendDB)
			continue
		}
		if p.Tag != snap.SchemaGen {
			s.metrics.staleConflicts.Add(1)
			p.Resolve(nil, errStaleSchema)
			continue
		}
		live = append(live, p)
	}

	// Fold, ejecting bad batches: a *BatchError identifies one invalid
	// record, and one caller's bad batch must not fail the unrelated
	// requests grouped with it. Resolve the owner alone (with the record
	// index rebased to its own batch) and refold the remainder.
	start := time.Now()
	var elapsed time.Duration
	var fr *foldResult
	for {
		if len(live) == 0 {
			return
		}
		total := 0
		for _, p := range live {
			total += len(p.Records)
		}
		batch := make([]pathdb.Record, 0, total)
		for _, p := range live {
			batch = append(batch, p.Records...)
		}
		var err error
		fr, err = s.fold(snap.Cube, snap.DB.Schema, batch)
		if err == nil {
			elapsed = time.Since(start)
			break
		}
		var be *core.BatchError
		if errors.As(err, &be) {
			if i, off := groupOwner(live, be.Index); i >= 0 {
				live[i].Resolve(nil, appendError(&core.BatchError{Index: be.Index - off, Err: be.Err}))
				live = append(live[:i], live[i+1:]...)
				continue
			}
		}
		for _, p := range live {
			p.Resolve(nil, appendError(err))
		}
		return
	}

	// Durability: journal each folded batch, one fsync for the group. A
	// batch is acknowledged only after its WAL entry is stable, so a crash
	// between here and the snapshot swap replays it on restart. On a
	// journal failure nothing is published: the store reservation is
	// abandoned and the serving snapshot stands.
	if s.wal != nil {
		if err := s.journalGroup(snap, live); err != nil {
			s.logger.Printf("append: WAL journal failed: %v", err)
			fail := &HTTPError{http.StatusInternalServerError, fmt.Sprintf("journal append batch: %v", err)}
			for _, p := range live {
				p.Resolve(nil, fail)
			}
			return
		}
	}

	next := s.publish(snap, fr)
	stats := fr.stats
	s.holder.set(next)
	s.metrics.recordAppend(elapsed, stats)
	s.metrics.lastGroupSize.Store(int64(len(live)))
	s.logger.Printf("appended %d records (%d requests grouped): %d cells touched, %d admitted, %d restricted re-mines in %s",
		stats.BatchRecords, len(live), stats.CellsTouched, stats.CellsAdmitted, stats.CellsReminedRestricted, elapsed.Round(time.Microsecond))

	for _, p := range live {
		p.Resolve(map[string]any{
			"status":        "appended",
			"records":       len(p.Records),
			"group_records": stats.BatchRecords,
			"group_size":    len(live),
			"delta_ms":      float64(elapsed.Nanoseconds()) / 1e6,
			"stats":         stats,
			"cells":         next.Cube.NumCells(),
			"generation":    next.Gen,
		}, nil)
	}
}

// journalGroup appends each live batch to the WAL and makes the group
// durable with a single fsync.
func (s *Server) journalGroup(snap *Snapshot, live []*ingest.Pending) error {
	for _, p := range live {
		if err := s.wal.Append(snap.DB.Schema, p.Records); err != nil {
			return err
		}
	}
	if err := s.wal.Sync(); err != nil {
		return err
	}
	s.metrics.walEntries.Store(int64(s.wal.Entries()))
	s.metrics.walBytes.Store(s.wal.Size())
	return nil
}

// groupOwner maps a record index in the group's concatenated batch back to
// the request that contributed it, returning the request's position in live
// and the offset its batch starts at (-1, 0 when the index is out of range).
func groupOwner(live []*ingest.Pending, index int) (i, offset int) {
	off := 0
	for i, p := range live {
		if index < off+len(p.Records) {
			return i, off
		}
		off += len(p.Records)
	}
	return -1, 0
}

// foldResult is a folded-but-unpublished commit: the next cube generation,
// the record-store reservation extended with the batch, and the delta
// stats. publish commits it; dropping it instead abandons the fork and the
// reservation and leaves the committed store and serving snapshot untouched.
// The split lets applyGroup journal the group after the fold has validated
// it but before any state becomes visible.
type foldResult struct {
	cube    *core.Cube
	records []pathdb.Record
	stats   *core.DeltaStats
}

// fold applies one concatenated batch to the next generation of cube and
// returns the unpublished result. Exactness comes from core.ApplyDelta;
// O(batch) cost comes from patching a fork — which shares cube's cells,
// flowgraph nodes and mapped snapshot, and copies the cells the batch
// writes — plus a copy-on-write reservation in the record store. A lazily
// served cube stays lazy: the fork decodes only the cells it reads, and a
// cell that does not decode (it read as absent, so the fold is not exact)
// fails the append loudly.
func (s *Server) fold(cube *core.Cube, schema *pathdb.Schema, batch []pathdb.Record) (*foldResult, error) {
	cube = cube.Fork()
	db := &pathdb.DB{Schema: schema, Records: s.store.Reserve(len(batch))}
	stats, err := core.ApplyDelta(cube, db, batch)
	if err == nil {
		err = cube.LazyErr()
	}
	if err != nil {
		// The fork and the reservation are abandoned; the cube it was forked
		// from and the committed store are untouched.
		return nil, err
	}
	if s.cfg.PostAppend != nil {
		cube = s.cfg.PostAppend(cube)
	}
	return &foldResult{cube: cube, records: db.Records, stats: stats}, nil
}

// publish commits a fold's record reservation to the store and wraps the
// folded cube in the next snapshot, ready for the holder swap.
func (s *Server) publish(snap *Snapshot, fr *foldResult) *Snapshot {
	s.store.Commit(fr.records)
	return s.successor(snap, fr.cube)
}

// successor wraps cube, folded from snap's over the committed store, in the
// snapshot that follows snap. It keeps snap's load gauges: they reset on
// reload, not on append.
func (s *Server) successor(snap *Snapshot, cube *core.Cube) *Snapshot {
	next := newSnapshot(cube, snap.Source, s.cfg.CacheSize, snap.LoadDuration, snap.Bytes)
	next.DB = &pathdb.DB{Schema: snap.DB.Schema, Records: s.store.Committed()}
	next.Gen = snap.Gen + 1
	next.SchemaGen = snap.SchemaGen
	return next
}

// appendError maps delta-maintenance failures to HTTP statuses: bad batch
// records are the client's fault (400); a cube whose configuration cannot
// be delta-maintained is a state conflict (409).
func appendError(err error) error {
	var be *core.BatchError
	switch {
	case errors.As(err, &be):
		return &HTTPError{http.StatusBadRequest, err.Error()}
	case errors.Is(err, core.ErrAbsoluteMinCount),
		errors.Is(err, core.ErrCompressed),
		errors.Is(err, core.ErrSchemaMismatch):
		return &HTTPError{http.StatusConflict, err.Error()}
	}
	return err
}
