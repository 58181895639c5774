package server

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"flowcube/internal/core"
	"flowcube/internal/datagen"
	"flowcube/internal/lru"
	"flowcube/internal/mining"
	"flowcube/internal/pathdb"
)

// Snapshot wraps one immutable materialized cube for serving. The cube is
// never mutated after construction (see the concurrency contract on
// core.Cube); a hot reload builds a whole new Snapshot and swaps the
// pointer, so in-flight requests finish against the snapshot they started
// with. Each snapshot owns its response cache, which makes reloads
// self-invalidating.
type Snapshot struct {
	Cube     *core.Cube
	Source   string
	LoadedAt time.Time
	// LoadDuration is how long the loader took to produce the cube the
	// snapshot's lineage started from: snapshots produced by POST
	// /admin/append or a WAL replay keep their predecessor's.
	LoadDuration time.Duration
	// Bytes is the serialized size of the snapshot's input (the cube or
	// path-database file), 0 when the loader cannot know it.
	Bytes int64
	// DB is the path database the cube was built over, when the loader had
	// it. Snapshots with a DB accept streaming appends (POST /admin/append);
	// snapshots loaded from a saved cube alone do not. Its record slice is a
	// capacity-clamped view of the server's copy-on-write store
	// (pathdb.Store), so append commits never move records under a reader.
	DB *pathdb.DB
	// Gen counts snapshot swaps monotonically: every commit or reload
	// produces a snapshot with the next generation.
	Gen uint64
	// SchemaGen counts reloads: appends inherit it, reloads bump it. A batch
	// parsed against one SchemaGen cannot fold into a snapshot with another —
	// the reload may have changed the schema or the source of truth — so the
	// committer rejects the stale batch with a retryable conflict.
	SchemaGen uint64

	// cache holds rendered responses by request URL, at cost 1 each, with
	// single-flight so a thundering herd of identical queries computes the
	// answer once.
	cache *lru.Cache[string, *cached]

	// censusOnce guards censusVal, built by the first request that needs it.
	censusOnce sync.Once
	censusVal  census
}

// census is a snapshot's cuboid census: the /v1/cuboids body and the
// /v1/summary body derived from it.
type census struct {
	cuboids CuboidsResponse
	summary SummaryResponse
}

// census returns the snapshot's census, built on first use. It cannot
// change within a snapshot (appends and reloads make new ones), and on a
// lazily loaded cube building it walks every section directory through the
// cell cache, so it is built once rather than per request.
func (s *Snapshot) census() *census {
	s.censusOnce.Do(func() {
		s.censusVal.cuboids = renderCuboids(s)
		s.censusVal.summary = s.censusVal.cuboids.Summary()
	})
	return &s.censusVal
}

// cached is one rendered response: everything a handler needs to replay it.
type cached struct {
	status      int
	contentType string
	body        []byte
}

func newSnapshot(cube *core.Cube, source string, cacheSize int, loadDur time.Duration, bytes int64) *Snapshot {
	return &Snapshot{
		Cube:         cube,
		Source:       source,
		LoadedAt:     time.Now(),
		LoadDuration: loadDur,
		Bytes:        bytes,
		cache:        lru.New[string, *cached](int64(max(cacheSize, 0))), // cost 1 per response; <= 0 stores nothing
	}
}

// holder is the atomic snapshot pointer — the MVCC pivot: readers load it
// once and answer wholly from that snapshot, the commit loop publishes a
// new one per commit or reload, and neither ever blocks the other.
type holder struct {
	snap atomic.Pointer[Snapshot]
}

func (h *holder) get() *Snapshot { return h.snap.Load() }

func (h *holder) set(s *Snapshot) { h.snap.Store(s) }

// LoadInfo describes the serialized input a Loader read its cube from, for
// the snapshot gauges on /metrics and the reload response.
type LoadInfo struct {
	// Bytes is the size of the serialized snapshot input; 0 when unknown
	// (e.g. a cube built in memory).
	Bytes int64
	// DB is the path database the cube was built over; loaders that have it
	// should return it so the server can serve streaming appends. Nil when
	// the loader only had a saved cube. The server adopts the record slice
	// into its copy-on-write store (pathdb.Store), so every load call must
	// return a freshly allocated slice, never one shared with earlier loads
	// or retained by the caller.
	DB *pathdb.DB
}

// Loader produces a fresh cube; it is called once at startup and again on
// every POST /admin/reload. It must return a cube no other goroutine will
// mutate.
type Loader func() (*core.Cube, LoadInfo, error)

// BuildOptions parameterize cube construction when the loader starts from a
// raw path database rather than a persisted cube.
type BuildOptions struct {
	// MinSupport is the iceberg threshold δ as a fraction of the database.
	MinSupport float64
	// Epsilon is the minimum deviation ε for exceptions.
	Epsilon float64
	// Tau is the redundancy threshold τ; 0 disables redundancy marking.
	Tau float64
	// MineExceptions computes flowgraph exceptions (the holistic, expensive
	// part of the measure).
	MineExceptions bool
	// Workers is core.Config.Workers for the build: goroutines for mining
	// (candidate join, support counting), flowgraph construction and
	// exception mining.
	Workers int
	// Lazy opens cube snapshots with core.LoadCubeLazy: the file is mapped
	// read-only and cells decode one at a time on first touch, so the server
	// is ready in milliseconds and resident memory stays bounded by
	// LazyCacheBytes rather than the full cube size. A path database is
	// built eagerly, as without Lazy.
	Lazy bool
	// LazyCacheBytes is the budget of the lazy open's LRU of section
	// directories and decoded cells, in estimated decoded heap bytes;
	// 0 means core.DefaultLazyCacheBytes, negative disables eviction.
	LazyCacheBytes int64
}

// WithDatabase wraps a loader so the snapshots it produces carry the path
// database read from dbPath whenever the loader itself has none (a loader
// over a saved cube snapshot, for example). Shard servers use it so
// /admin/append keeps working over split snapshots: the cube is shard-local
// but the database is the replicated source of truth (see internal/cluster
// and DESIGN.md §10). The database is re-read on every load, so reloads see
// a replaced file.
func WithDatabase(loader Loader, dbPath string) Loader {
	return func() (*core.Cube, LoadInfo, error) {
		cube, info, err := loader()
		if err != nil || info.DB != nil {
			return cube, info, err
		}
		f, err := os.Open(dbPath)
		if err != nil {
			return nil, LoadInfo{}, fmt.Errorf("server: open database %s: %w", dbPath, err)
		}
		defer func() { _ = f.Close() }() // read-only; close errors carry no information
		ds, err := datagen.Read(f)
		if err != nil {
			return nil, LoadInfo{}, fmt.Errorf("server: read database %s: %w", dbPath, err)
		}
		if err := cube.CheckSchema(ds.DB.Schema); err != nil {
			return nil, LoadInfo{}, fmt.Errorf("server: database %s: %w", dbPath, err)
		}
		info.DB = ds.DB
		return cube, info, nil
	}
}

// FileLoader returns a Loader over a file path holding either a persisted
// cube (flowquery -save, typically .fcb) or a flowgen path database
// (typically .fdb). The format is sniffed from the snapshot magic, not
// inferred from the extension: a snapshot opens lazily with opts.Lazy
// (mapped, cells decoded on first touch) and eagerly otherwise, and its
// errors keep their type (*core.CorruptSnapshotError); anything else is read
// as a path database and built with opts. Either cube derives its sub-δ
// ledger on its first append (core.ApplyDelta). Reload re-reads the file, so
// replacing it on disk and POSTing /admin/reload rolls the serving snapshot
// forward — a near-free pointer swap when the snapshot opens lazily.
func FileLoader(path string, opts BuildOptions) Loader {
	return func() (*core.Cube, LoadInfo, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, LoadInfo{}, err
		}
		defer func() { _ = f.Close() }() // read-only; close errors carry no information
		var info LoadInfo
		if st, err := f.Stat(); err == nil {
			info.Bytes = st.Size()
		}
		var head [16]byte // room for the snapshot magic
		n, err := f.ReadAt(head[:], 0)
		if err != nil && err != io.EOF {
			return nil, LoadInfo{}, err
		}
		notSnapshot := core.CheckMagic(head[:n])
		if notSnapshot == nil {
			var cube *core.Cube
			if opts.Lazy {
				cube, err = core.LoadCubeLazy(path, core.LazyOptions{CacheBytes: opts.LazyCacheBytes})
			} else {
				cube, err = core.Load(f)
			}
			if err != nil {
				return nil, LoadInfo{}, fmt.Errorf("server: load snapshot %s: %w", path, err)
			}
			return cube, info, nil
		}
		ds, err := datagen.Read(f)
		if err != nil {
			return nil, LoadInfo{}, fmt.Errorf("server: %s is neither a saved cube (%v) nor a path database (%v)",
				path, notSnapshot, err)
		}
		// Resolve the fractional threshold to an absolute δ up front — the
		// same resolution the miner would apply — so the served cube is
		// delta-maintainable (core.ApplyDelta requires an absolute MinCount).
		minCount, err := mining.ResolveMinCount(mining.Options{MinSupport: opts.MinSupport}, ds.DB.Len())
		if err != nil {
			return nil, LoadInfo{}, fmt.Errorf("server: resolve threshold for %s: %w", path, err)
		}
		cube, err := core.Build(ds.DB, core.Config{
			MinCount:              minCount,
			Epsilon:               opts.Epsilon,
			Tau:                   opts.Tau,
			Plan:                  ds.DefaultPlan(),
			MineExceptions:        opts.MineExceptions,
			SingleStageExceptions: opts.MineExceptions,
			Workers:               opts.Workers,
		})
		if err != nil {
			return nil, LoadInfo{}, fmt.Errorf("server: build cube from %s: %w", path, err)
		}
		info.DB = ds.DB
		return cube, info, nil
	}
}
