package flowcube

// The v2 construction API: context-aware entry points, functional
// configuration options, typed errors, and incremental (delta) cube
// maintenance. The original Build / LoadCube / Config literal forms remain
// the thin, canonical core; everything here composes on top of them.

import (
	"context"
	"io"

	"flowcube/internal/core"
)

// Typed errors, re-exported for errors.Is / errors.As against root-package
// results.
type (
	// ConfigError reports an invalid Config field; returned (wrapped) by
	// Build, BuildContext, and NewConfig.
	ConfigError = core.ConfigError
	// CorruptSnapshotError reports a structurally invalid cube snapshot;
	// returned (wrapped) by LoadCube and LoadCubeContext.
	CorruptSnapshotError = core.CorruptSnapshotError
)

// ErrCellNotFound is wrapped by (*Cube).Answer when neither the requested
// cell nor any materialized or computable ancestor exists.
var ErrCellNotFound = core.ErrCellNotFound

// BuildContext is Build with cancellation: ctx is checked between pipeline
// phases (encode/mine, populate, exceptions, redundancy), so a
// cancelled build returns ctx.Err() without finishing the remaining phases.
func BuildContext(ctx context.Context, db *DB, cfg Config) (*Cube, error) {
	return core.BuildContext(ctx, db, cfg)
}

// LoadCubeContext is LoadCube with cancellation: ctx is checked before every
// read and every section decode, so loading a large cube can be abandoned
// early.
func LoadCubeContext(ctx context.Context, r io.Reader) (*Cube, error) {
	return core.LoadContext(ctx, r)
}

// LazyOptions configures LoadCubeLazy (the directory-and-cell cache budget).
type LazyOptions = core.LazyOptions

// LazyStats reports a lazily loaded cube's mapping and cache gauges; see
// (*Cube).LazyStats.
type LazyStats = core.LazyStats

// LoadCubeLazy memory-maps a v2 cube snapshot read-only and returns a cube
// whose cells decode one at a time on first touch, kept in a bounded LRU: the
// open validates framing and checksums but materializes nothing, so it
// completes in milliseconds with resident memory bounded by the cache
// budget rather than the cube size. The returned cube answers the full
// query surface identically to LoadCube, and every mutator — ApplyDelta,
// MarkRedundancy, Compress, FilterCells, Merge — and Fork work on it,
// decoding only the cells they reach. Close the cube with (*Cube).Close when
// done — it releases the mapping its forks share — or let the finalizer
// unmap it.
func LoadCubeLazy(path string, opts LazyOptions) (*Cube, error) {
	return core.LoadCubeLazy(path, opts)
}

// Option is one functional configuration setting for NewConfig.
type Option func(*Config)

// NewConfig assembles a validated Config from the materialization plan and
// options. It returns a *ConfigError (wrapped) when the resulting
// configuration is invalid — callers get the failure at construction time
// instead of from Build.
func NewConfig(plan Plan, opts ...Option) (Config, error) {
	cfg := Config{Plan: plan}
	for _, opt := range opts {
		opt(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// WithWorkers sets the build parallelism (0 = GOMAXPROCS).
func WithWorkers(n int) Option { return func(c *Config) { c.Workers = n } }

// WithMinSupport sets a fractional iceberg threshold: cells covering fewer
// than s·N of the N records are not materialized. Mutually exclusive with
// WithDelta; fractional thresholds re-resolve against a grown database, so
// cubes built this way cannot be delta-maintained.
func WithMinSupport(s float64) Option { return func(c *Config) { c.MinSupport = s } }

// WithDelta sets the absolute iceberg threshold δ: cells with fewer than d
// paths are not materialized. An absolute δ is what ApplyDelta requires.
func WithDelta(d int64) Option { return func(c *Config) { c.MinCount = d } }

// WithEpsilon sets the exception-significance threshold ε.
func WithEpsilon(e float64) Option { return func(c *Config) { c.Epsilon = e } }

// WithTau sets the redundancy-similarity threshold τ; 0 disables
// redundancy marking.
func WithTau(t float64) Option { return func(c *Config) { c.Tau = t } }

// WithExceptions enables exception mining (conditioned on frequent path
// segments; see Config.MineExceptions).
func WithExceptions() Option { return func(c *Config) { c.MineExceptions = true } }

// WithDeltaLedger has no effect (see Config.DeltaLedger): ApplyDelta
// derives the sub-δ count ledger on a cube's first append.
func WithDeltaLedger() Option { return func(c *Config) { c.DeltaLedger = true } }

// Incremental maintenance (streaming append), implemented by
// core.ApplyDelta.
type (
	// DeltaStats reports what one ApplyDelta call did.
	DeltaStats = core.DeltaStats
	// BatchError reports the first invalid record of a rejected append
	// batch.
	BatchError = core.BatchError
)

// Delta-maintenance sentinels, matched with errors.Is.
var (
	// ErrAbsoluteMinCount: the cube was built with a fractional threshold.
	ErrAbsoluteMinCount = core.ErrAbsoluteMinCount
	// ErrSchemaMismatch: the database's schema is not the cube's.
	ErrSchemaMismatch = core.ErrSchemaMismatch
)

// ApplyDelta appends a batch of records to a materialized cube and its
// path database, updating only the affected cells — counts, flowgraphs,
// exceptions, redundancy marks, and sub-δ admissions. The result is exact:
// saving the patched cube yields the same bytes as a full Build over the
// union database. The cube must have been built with an absolute threshold
// (WithDelta / Config.MinCount).
//
// ApplyDelta must not run concurrently with readers of the cube or db;
// long-lived servers patch a (*Cube).Fork — which leaves the served cube
// untouched — and swap. See DESIGN.md §9.
func ApplyDelta(cube *Cube, db *DB, batch []Record) (*DeltaStats, error) {
	return core.ApplyDelta(cube, db, batch)
}
