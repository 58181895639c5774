package server

// Ingest write-path tests: crash recovery through the WAL, group-commit
// correctness under concurrency (-race), reload/append fencing, and the
// stale-schema conflict. The digest assertions lean on core.ApplyDelta's
// exactness contract: a folded cube must be byte-identical under Save to a
// full Build over the union database in commit order.

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/datagen"
	"flowcube/internal/ingest"
	"flowcube/internal/oracle"
	"flowcube/internal/paperex"
	"flowcube/internal/pathdb"
)

// status is the status WriteError answers err with.
func status(err error) int {
	st, _ := errorStatus(err)
	return st
}

// prefixLoader builds a fresh cube over a fresh copy of db's first n
// records on every call, like FileLoader re-reading its file: the store
// adopts the records.
func prefixLoader(db *pathdb.DB, n int, cfg core.Config) Loader {
	return func() (*core.Cube, LoadInfo, error) {
		prefix := oracle.Prefix(db, n)
		cube, err := core.Build(prefix, cfg)
		return cube, LoadInfo{DB: prefix}, err
	}
}

// paperexServer serves the running example, the cheap fixture for the
// fencing tests (its 8 records build in milliseconds), at δ = 2, loading a
// fresh copy every time and journaling appends to walPath when it is set.
func paperexServer(t testing.TB, walPath string) (*Server, *paperex.Example) {
	ex := paperex.New()
	cfg := quietConfig()
	cfg.WALPath = walPath
	return newTestServer2(t, prefixLoader(ex.DB, ex.DB.Len(), core.Config{MinCount: 2, Plan: oracle.Base(ex)}), cfg), ex
}

// TestIngestWALCrashRecovery is the acceptance scenario from DESIGN.md §11:
// batches journaled in the WAL but never folded into a persisted snapshot
// (the swap is volatile — any crash after the fsync loses it) must replay on
// startup to the exact state an uninterrupted run reaches.
func TestIngestWALCrashRecovery(t *testing.T) {
	ds := oracle.Dataset(51, 160)
	const base = 120
	cfg := core.Config{
		MinCount: 4, Epsilon: 0.05, Plan: ds.DefaultPlan(),
		MineExceptions: true, Workers: 2,
	}
	walPath := filepath.Join(t.TempDir(), "ingest.wal")

	// Crash before any fold: the journal holds two acknowledged batches the
	// in-memory snapshot never absorbed.
	w, err := ingest.OpenContext(context.Background(), walPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, split := range [][2]int{{base, 140}, {140, 160}} {
		if err := w.Append(ds.DB.Schema, ds.DB.Records[split[0]:split[1]]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	sCfg := quietConfig()
	sCfg.WALPath = walPath
	s := newTestServer2(t, prefixLoader(ds.DB, base, cfg), sCfg)
	snap := s.Snapshot()
	if snap.DB.Len() != 160 {
		t.Fatalf("replayed snapshot has %d records, want 160", snap.DB.Len())
	}
	// The uninterrupted run is a full build over all 160 records in order.
	oracle.Check(t, "replayed snapshot", snap.Cube, ds.DB, cfg)
	if got := s.Metrics().Ingest.WALEntries; got != 2 {
		t.Errorf("wal_entries = %d after replay, want 2", got)
	}
	// Nobody can read the generations in between, so replay builds one
	// snapshot (and one response cache) over the last, however many entries.
	if snap.Gen != 1 {
		t.Errorf("replaying 2 entries built %d snapshots, want 1", snap.Gen)
	}

	// The journal keeps extending after replay: an append journals entry 3,
	// and a second restart replays all three.
	rec, _ := postBody(t, s.Handler(), "/admin/append",
		oracle.Records(t, ds.DB.Schema, ds.DB.Records[150:160]))
	if rec.Code != http.StatusOK {
		t.Fatalf("append after replay: status %d: %s", rec.Code, rec.Body.String())
	}
	wantLen := s.Snapshot().DB.Len()
	wantDigest := oracle.Digest(t, s.Snapshot().Cube)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer2(t, prefixLoader(ds.DB, base, cfg), sCfg)
	defer s2.Close()
	if got := s2.Snapshot().DB.Len(); got != wantLen {
		t.Fatalf("second restart has %d records, want %d", got, wantLen)
	}
	if got := oracle.Digest(t, s2.Snapshot().Cube); got != wantDigest {
		t.Errorf("second restart digest %s != pre-crash digest %s", got, wantDigest)
	}
}

// TestIngestLazyServerMatchesEager appends to a server that serves its
// snapshot lazily (FileLoader with Lazy, the database from WithDatabase)
// and to an eager server over the same files, then restarts the lazy one on
// its WAL: after every step the census and a sample of /v2 bodies must be
// byte-identical, and the lazy server must still be lazy, having decoded
// less than its snapshot holds.
func TestIngestLazyServerMatchesEager(t *testing.T) {
	ds := oracle.Dataset(61, 160)
	const base = 120
	cube := oracle.Build(t, oracle.Prefix(ds.DB, base), core.Config{
		MinCount: 4, Tau: 0.5, Plan: ds.DefaultPlan(), Workers: 2})
	snap := oracle.Save(t, cube)
	snapPath, walPath := oracle.File(t, snap), filepath.Join(t.TempDir(), "ingest.wal")
	dbPath := oracle.DatasetFile(t, &datagen.Dataset{Config: ds.Config, DB: oracle.Prefix(ds.DB, base)})
	serve := func(lazy bool, walPath string) *Server {
		cfg := quietConfig()
		cfg.WALPath = walPath
		return newTestServer2(t, WithDatabase(FileLoader(snapPath, BuildOptions{Lazy: lazy}), dbPath), cfg)
	}
	eager, lazy := serve(false, ""), serve(true, walPath)
	defer eager.Close()

	var urls []string
	for _, spec := range cube.MaterializedSpecs() {
		for i, cell := range cube.Cuboid(spec).SortedCells() {
			if i%8 == 0 {
				urls = append(urls, fmt.Sprintf("/v2/query?op=cell&pathlevel=%d&cell=%s",
					spec.PathLevel, core.FormatCell(cube.Schema, cell.Values)))
			}
		}
	}
	same := func(step string) {
		t.Helper()
		fetch := func(s *Server, u string) (int, string) {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, u, nil))
			return rec.Code, loadedAtRe.ReplaceAllString(rec.Body.String(), "")
		}
		for _, u := range append([]string{"/v1/cuboids"}, urls...) {
			ec, eb := fetch(eager, u)
			lc, lb := fetch(lazy, u)
			if ec != lc || eb != lb {
				t.Fatalf("%s: GET %s diverged\neager %d: %s\nlazy %d: %s", step, u, ec, eb, lc, lb)
			}
		}
		_, m := get(t, lazy.Handler(), "/metrics")
		lz, _ := m["snapshot"].(map[string]any)["lazy"].(map[string]any)
		if lz == nil {
			t.Fatalf("%s: /metrics reports no snapshot.lazy", step)
		}
		if decoded := lz["decoded_bytes"].(float64); decoded >= float64(len(snap)) {
			t.Errorf("%s: decoded %v bytes of a %d-byte snapshot", step, decoded, len(snap))
		}
	}

	same("open")
	for _, split := range [][2]int{{base, 130}, {130, 145}, {145, 160}} {
		body := oracle.Records(t, ds.DB.Schema, ds.DB.Records[split[0]:split[1]])
		for _, s := range []*Server{eager, lazy} {
			if rec, _ := postBody(t, s.Handler(), "/admin/append", body); rec.Code != http.StatusOK {
				t.Fatalf("append %v: status %d: %s", split, rec.Code, rec.Body.String())
			}
		}
		same(fmt.Sprintf("after append %v", split))
	}
	if err := lazy.Close(); err != nil {
		t.Fatal(err)
	}
	lazy = serve(true, walPath)
	defer lazy.Close()
	same("after restart on the WAL")
}

// TestIngestReloadResetsWAL: reload rebuilds from the loader's source of
// truth and deliberately discards appended records, so it must also discard
// their journal entries — replaying them after a restart would double-apply.
func TestIngestReloadResetsWAL(t *testing.T) {
	const base = 8 // the full running example
	walPath := filepath.Join(t.TempDir(), "ingest.wal")
	s, ex := paperexServer(t, walPath)

	rec, _ := postBody(t, s.Handler(), "/admin/append",
		oracle.Records(t, ex.DB.Schema, ex.DB.Records[:2]))
	if rec.Code != http.StatusOK {
		t.Fatalf("append: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := s.Metrics().Ingest.WALEntries; got != 1 {
		t.Fatalf("wal_entries = %d after append, want 1", got)
	}

	if rec, _ := postBody(t, s.Handler(), "/admin/reload", ""); rec.Code != http.StatusOK {
		t.Fatalf("reload: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := s.Metrics().Ingest.WALEntries; got != 0 {
		t.Errorf("wal_entries = %d after reload, want 0", got)
	}
	if got := s.Snapshot().DB.Len(); got != base {
		t.Errorf("post-reload snapshot has %d records, want %d", got, base)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: nothing to replay.
	s2, _ := paperexServer(t, walPath)
	defer s2.Close()
	if got := s2.Snapshot().DB.Len(); got != base {
		t.Errorf("restart after reload has %d records, want %d (WAL double-applied)", got, base)
	}
}

// TestReloadRefusesOldSnapshot: a reload whose snapshot file an older
// writer replaced (a version-3 header) answers an error that says to
// rebuild it, and changes nothing: the generation, the reload counter and
// the WAL stay as they were, and the served generation keeps answering.
func TestReloadRefusesOldSnapshot(t *testing.T) {
	ds := oracle.Dataset(61, 160)
	const base = 120
	snap := oracle.Save(t, oracle.Build(t, oracle.Prefix(ds.DB, base), core.Config{
		MinCount: 4, Plan: ds.DefaultPlan(), Workers: 2}))
	snapPath, walPath := oracle.File(t, snap), filepath.Join(t.TempDir(), "ingest.wal")
	dbPath := oracle.DatasetFile(t, &datagen.Dataset{Config: ds.Config, DB: oracle.Prefix(ds.DB, base)})
	cfg := quietConfig()
	cfg.WALPath = walPath
	s := newTestServer2(t, WithDatabase(FileLoader(snapPath, BuildOptions{}), dbPath), cfg)
	defer s.Close()
	if rec, _ := postBody(t, s.Handler(), "/admin/append",
		oracle.Records(t, ds.DB.Schema, ds.DB.Records[base:base+10])); rec.Code != http.StatusOK {
		t.Fatalf("append: status %d: %s", rec.Code, rec.Body.String())
	}

	const url = "/v1/cuboids"
	served := func() string {
		rec, _ := get(t, s.Handler(), url)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", url, rec.Code, rec.Body.String())
		}
		return rec.Body.String()
	}
	before, gen, ingest := served(), s.Snapshot().Gen, s.Metrics().Ingest
	if ingest.WALEntries != 1 {
		t.Fatalf("wal_entries = %d after append, want 1", ingest.WALEntries)
	}

	old := oracle.RewriteSection(t, snap, oracle.SecHeader, 0, func(p []byte) []byte { return append([]byte{3}, p[1:]...) })
	if err := os.WriteFile(snapPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, body := postBody(t, s.Handler(), "/admin/reload", "")
	if rec.Code == http.StatusOK {
		t.Fatal("reload accepted a version-3 snapshot")
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "rebuilt from the path database") {
		t.Errorf("reload error %q does not say how to rebuild", msg)
	}
	if got := s.Snapshot().Gen; got != gen {
		t.Errorf("Gen = %d after the refused reload, want %d", got, gen)
	}
	if got := s.Metrics().Reloads; got != 0 {
		t.Errorf("reload counter = %d after the refused reload, want 0", got)
	}
	if got := s.Metrics().Ingest; got.WALEntries != ingest.WALEntries || got.WALBytes != ingest.WALBytes {
		t.Errorf("WAL %d entries, %d bytes after the refused reload, want %d, %d",
			got.WALEntries, got.WALBytes, ingest.WALEntries, ingest.WALBytes)
	}
	if after := served(); after != before {
		t.Errorf("GET %s changed after the refused reload:\nbefore %s\nafter  %s", url, before, after)
	}
}

// TestIngestStaleSchemaConflict pins the parse-then-commit race determin-
// istically: a batch parsed against a pre-reload snapshot must be rejected
// at commit with a retryable 409, because the reload may have changed the
// schema the batch's node ids were resolved against.
func TestIngestStaleSchemaConflict(t *testing.T) {
	s, ex := paperexServer(t, "")
	defer s.Close()

	staleTag := s.Snapshot().SchemaGen
	if rec, _ := postBody(t, s.Handler(), "/admin/reload", ""); rec.Code != http.StatusOK {
		t.Fatalf("reload: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := s.Snapshot().SchemaGen; got != staleTag+1 {
		t.Fatalf("SchemaGen after reload = %d, want %d", got, staleTag+1)
	}

	p, err := s.committer.Submit(ex.DB.Records[:2], staleTag)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Wait(); status(err) != http.StatusConflict {
		t.Fatalf("stale-tag commit: err %v, want 409", err)
	}
	if got := s.Metrics().Ingest.StaleConflicts; got != 1 {
		t.Errorf("stale_conflicts = %d, want 1", got)
	}

	// A batch carrying the current generation folds normally.
	rec, _ := postBody(t, s.Handler(), "/admin/append",
		oracle.Records(t, ex.DB.Schema, ex.DB.Records[:2]))
	if rec.Code != http.StatusOK {
		t.Errorf("fresh append after conflict: status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestIngestBatchErrorIsolatedToOwner: one caller's invalid batch must not
// fail the unrelated requests grouped with it. The owner alone gets the 400
// (with the record index rebased to its own batch), the survivors refold
// and commit together, and the bad batch is never journaled.
func TestIngestBatchErrorIsolatedToOwner(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "ingest.wal")
	s, ex := paperexServer(t, walPath)
	defer s.Close()

	before := s.Snapshot()
	beforeDigest := oracle.Digest(t, before.Cube)
	tag := before.SchemaGen
	base := before.DB.Len()
	good1 := ingest.NewPending(append([]pathdb.Record(nil), ex.DB.Records[:2]...), tag)
	// The invalid record (empty path) sits at position 1 of its own batch,
	// concatenated position 3 of the group: the reported index must be
	// rebased to the owner's batch.
	bad := ingest.NewPending([]pathdb.Record{ex.DB.Records[2], {Dims: ex.DB.Records[2].Dims}}, tag)
	good2 := ingest.NewPending(append([]pathdb.Record(nil), ex.DB.Records[3:5]...), tag)

	// Drive the apply callback directly: the committer would deliver the
	// same group, but only under a timing race between Submit calls.
	s.applyGroup([]*ingest.Pending{good1, bad, good2})

	_, badErr := bad.Wait()
	if status(badErr) != http.StatusBadRequest {
		t.Fatalf("bad batch: err %v, want 400", badErr)
	}
	if !strings.Contains(badErr.Error(), "record 1") {
		t.Errorf("bad batch error %q does not carry the index rebased to its own batch", badErr)
	}
	for i, p := range []*ingest.Pending{good1, good2} {
		resp, err := p.Wait()
		if err != nil {
			t.Fatalf("good batch %d failed alongside the bad one: %v", i, err)
		}
		if got := resp.(map[string]any)["group_records"]; got != 4 {
			t.Errorf("good batch %d group_records = %v, want 4 (the two surviving batches)", i, got)
		}
	}
	if got := s.Snapshot().DB.Len(); got != base+4 {
		t.Errorf("snapshot has %d records, want %d (both good batches, not the bad one)", got, base+4)
	}
	if got := s.Metrics().Ingest.WALEntries; got != 2 {
		t.Errorf("wal_entries = %d, want 2 (the rejected batch must never be journaled)", got)
	}
	// Two folds forked the serving cube — the one the bad batch sank and
	// the one that committed — and neither may have written into it.
	if got := oracle.Digest(t, before.Cube); got != beforeDigest {
		t.Error("folding the group changed the snapshot it was forked from")
	}
}

// TestIngestFoldFailureLeavesWALClean pins the fold-then-journal ordering:
// a batch that fails the fold is reported to the client with nothing
// durable left behind, so a restart has nothing to replay — journal-first
// would refuse to start (the replayed entry fails the same deterministic
// fold) or double-apply a batch the client was told failed.
func TestIngestFoldFailureLeavesWALClean(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "ingest.wal")
	s, ex := paperexServer(t, walPath)

	before := s.Snapshot()
	beforeDigest := oracle.Digest(t, before.Cube)
	bad := ingest.NewPending([]pathdb.Record{{Dims: ex.DB.Records[0].Dims}}, before.SchemaGen)
	s.applyGroup([]*ingest.Pending{bad})
	if _, err := bad.Wait(); status(err) != http.StatusBadRequest {
		t.Fatalf("bad batch: err %v, want 400", err)
	}
	if got := s.Metrics().Ingest.WALEntries; got != 0 {
		t.Fatalf("wal_entries = %d after a failed fold, want 0", got)
	}
	if s.Snapshot() != before || oracle.Digest(t, before.Cube) != beforeDigest {
		t.Fatal("a failed fold replaced or changed the serving snapshot")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, _ := paperexServer(t, walPath)
	defer s2.Close()
	if got := s2.Snapshot().DB.Len(); got != len(ex.DB.Records) {
		t.Errorf("restart has %d records, want the %d base records (failed batch replayed)",
			got, len(ex.DB.Records))
	}
}

// TestIngestJournalFailureDropsFold: when the journal write fails after a
// clean fold, the fold is dropped — the client gets a 500, and the serving
// snapshot, its cube and the server's records are exactly what they were, so
// the next append folds from the same state.
func TestIngestJournalFailureDropsFold(t *testing.T) {
	s, ex := paperexServer(t, filepath.Join(t.TempDir(), "ingest.wal"))
	defer s.Close()
	before := s.Snapshot()
	beforeDigest := oracle.Digest(t, before.Cube)

	// A closed journal rejects the append, as a full disk would.
	if err := s.wal.Close(); err != nil {
		t.Fatal(err)
	}
	p := ingest.NewPending(append([]pathdb.Record(nil), ex.DB.Records[:3]...), before.SchemaGen)
	s.applyGroup([]*ingest.Pending{p})
	if _, err := p.Wait(); status(err) != http.StatusInternalServerError {
		t.Fatalf("append with a failing journal: err %v, want 500", err)
	}
	if s.Snapshot() != before {
		t.Fatal("a fold whose journal write failed was published")
	}
	if got := oracle.Digest(t, before.Cube); got != beforeDigest {
		t.Error("the dropped fold wrote into the serving cube")
	}
	if got := len(s.records); got != before.DB.Len() {
		t.Errorf("the server holds %d records after the dropped fold, want %d", got, before.DB.Len())
	}
}

// watchBatches spins n readers on the serving snapshot until the returned
// stop is called, which returns what they saw go wrong: a record count past
// base that is not a whole number of batches, or, when monotone, a
// generation or record count that went backwards.
func watchBatches(s *Server, n, base, batchSize int, monotone bool) (stop func() []string) {
	var done atomic.Bool
	var mu sync.Mutex
	var violations []string
	report := func(v string) {
		mu.Lock()
		defer mu.Unlock()
		if len(violations) < 64 {
			violations = append(violations, v)
		}
	}
	var readers sync.WaitGroup
	for r := 0; r < n; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			lastGen, lastLen := uint64(0), 0
			for !done.Load() {
				snap := s.Snapshot()
				n := snap.DB.Len()
				if (n-base)%batchSize != 0 {
					report(fmt.Sprintf("partial batch visible: %d records past base", n-base))
				}
				if monotone && (snap.Gen < lastGen || n < lastLen) {
					report(fmt.Sprintf("snapshot went backwards: gen %d→%d len %d→%d", lastGen, snap.Gen, lastLen, n))
				}
				lastGen, lastLen = snap.Gen, n
			}
		}()
	}
	return func() []string {
		done.Store(true)
		readers.Wait()
		return violations
	}
}

// TestIngestStressConcurrent is the -race stress test for the group-commit
// write path: disjoint two-record batches fired from many goroutines while
// readers spin on the snapshot pointer. No update may be lost (every record
// lands exactly once), reads may never observe a partial batch (the record
// count past the base is always a whole number of batches), and the final
// cube must be byte-identical to a full build over the database the commits
// produced.
func TestIngestStressConcurrent(t *testing.T) {
	ds := oracle.Dataset(59, 200)
	const (
		base      = 120
		batchSize = 2
		writers   = 8
		perWriter = 5 // batches each; writers*perWriter*batchSize covers [base,200)
	)
	cfg := core.Config{
		MinCount: 4, Epsilon: 0.05, Plan: ds.DefaultPlan(),
		MineExceptions: true, Workers: 2,
	}
	sCfg := quietConfig()
	sCfg.WALPath = filepath.Join(t.TempDir(), "ingest.wal")
	s := newTestServer2(t, prefixLoader(ds.DB, base, cfg), sCfg)
	defer s.Close()

	stopReaders := watchBatches(s, 3, base, batchSize, true)
	var writersWG sync.WaitGroup
	writeErrs := make([]error, writers)
	for wi := 0; wi < writers; wi++ {
		writersWG.Add(1)
		go func(wi int) {
			defer writersWG.Done()
			for b := 0; b < perWriter; b++ {
				lo := base + (wi*perWriter+b)*batchSize
				body := oracle.Records(t, ds.DB.Schema, ds.DB.Records[lo:lo+batchSize])
				req := httptest.NewRequest(http.MethodPost, "/admin/append", strings.NewReader(body))
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					writeErrs[wi] = fmt.Errorf("writer %d batch %d: status %d: %s", wi, b, rec.Code, rec.Body.String())
					return
				}
			}
		}(wi)
	}
	writersWG.Wait()
	for _, v := range stopReaders() {
		t.Error(v)
	}
	for _, err := range writeErrs {
		if err != nil {
			t.Fatal(err)
		}
	}

	snap := s.Snapshot()
	if snap.DB.Len() != 200 {
		t.Fatalf("final snapshot has %d records, want 200 (a batch was lost)", snap.DB.Len())
	}
	// Exactness in commit order: against a full build over the exact
	// database the concurrent folds produced.
	oracle.Check(t, "final folded snapshot", snap.Cube, snap.DB, cfg)
	m := s.Metrics()
	if m.Ingest.GroupedRequests != writers*perWriter {
		t.Errorf("grouped_requests = %d, want %d", m.Ingest.GroupedRequests, writers*perWriter)
	}
	if m.Ingest.WALEntries != writers*perWriter {
		t.Errorf("wal_entries = %d, want %d (one journal entry per accepted batch)", m.Ingest.WALEntries, writers*perWriter)
	}
}

// TestIngestStressWithReloads mixes appends, reloads, and reads: appends may
// cleanly conflict (409) when a reload fences them off, but nothing may
// crash, race, or leave the server unhealthy, and readers must never observe
// a partial batch (reloads reset the record count to the base, commits add
// whole batches).
func TestIngestStressWithReloads(t *testing.T) {
	const (
		base      = 8 // the full running example
		batchSize = 2
	)
	s, ex := paperexServer(t, "")
	defer s.Close()

	stopReaders := watchBatches(s, 2, base, batchSize, false)
	var writersWG sync.WaitGroup
	writeErrs := make([]error, 6)
	for wi := 0; wi < len(writeErrs); wi++ {
		writersWG.Add(1)
		go func(wi int) {
			defer writersWG.Done()
			for b := 0; b < 4; b++ {
				// Batches reuse example records (duplicates are ordinary
				// appends); what matters here is the swap traffic.
				lo := (wi*4 + b) * batchSize % (base - batchSize)
				body := oracle.Records(t, ex.DB.Schema, ex.DB.Records[lo:lo+batchSize])
				req := httptest.NewRequest(http.MethodPost, "/admin/append", strings.NewReader(body))
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, req)
				// 200 = committed; 409 = fenced by a concurrent reload —
				// both are correct outcomes. Anything else is a bug.
				if rec.Code != http.StatusOK && rec.Code != http.StatusConflict {
					writeErrs[wi] = fmt.Errorf("writer %d batch %d: status %d: %s", wi, b, rec.Code, rec.Body.String())
					return
				}
			}
		}(wi)
	}
	var reloadErr error
	writersWG.Add(1)
	go func() {
		defer writersWG.Done()
		for i := 0; i < 5; i++ {
			req := httptest.NewRequest(http.MethodPost, "/admin/reload", nil)
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				reloadErr = fmt.Errorf("reload %d: status %d: %s", i, rec.Code, rec.Body.String())
				return
			}
		}
	}()
	writersWG.Wait()
	for _, v := range stopReaders() {
		t.Error(v)
	}
	for _, err := range writeErrs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if reloadErr != nil {
		t.Fatal(reloadErr)
	}

	if rec, _ := get(t, s.Handler(), "/healthz"); rec.Code != http.StatusOK {
		t.Errorf("healthz after stress: status %d", rec.Code)
	}
	// The snapshot is still internally consistent: generation counters moved
	// and the record count parses as whole batches.
	snap := s.Snapshot()
	if (snap.DB.Len()-base)%batchSize != 0 {
		t.Errorf("final record count %d is not base plus whole batches", snap.DB.Len())
	}
	if snap.Gen == 0 {
		t.Error("no snapshot swap happened during the stress run")
	}
}

// TestIngestKeepsLoadGauge: the snapshot gauges on /metrics describe the
// last load and reset on reload, not on append, so neither a commit nor a
// WAL replay at startup may zero load_ms.
func TestIngestKeepsLoadGauge(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "ingest.wal")
	s, ex := paperexServer(t, walPath)
	before := s.Metrics().Snapshot.LoadMs
	if before <= 0 {
		t.Fatalf("load_ms = %g after the first load, want > 0", before)
	}
	rec, _ := postBody(t, s.Handler(), "/admin/append", oracle.Records(t, ex.DB.Schema, ex.DB.Records[:2]))
	if rec.Code != http.StatusOK {
		t.Fatalf("append: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := s.Metrics().Snapshot.LoadMs; got != before {
		t.Errorf("load_ms = %g after an append, want the load's %g", got, before)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, _ := paperexServer(t, walPath)
	defer s2.Close()
	if s2.Snapshot().Gen != 1 {
		t.Fatalf("restart is generation %d, want 1 (the replayed append)", s2.Snapshot().Gen)
	}
	if got := s2.Metrics().Snapshot.LoadMs; got <= 0 {
		t.Errorf("load_ms = %g after a WAL replay, want the load's, > 0", got)
	}
}
