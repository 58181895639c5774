package ingest

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"flowcube/internal/paperex"
	"flowcube/internal/pathdb"
)

func walPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "ingest.wal")
}

// openWAL opens the journal at path, failing the test on an error.
func openWAL(t *testing.T, path string) *WAL {
	t.Helper()
	w, err := OpenContext(context.Background(), path)
	if err != nil {
		t.Fatalf("Open %s: %v", path, err)
	}
	return w
}

func appendBatches(t *testing.T, w *WAL, ex *paperex.Example, batches [][]pathdb.Record) {
	t.Helper()
	for _, b := range batches {
		if err := w.Append(ex.DB.Schema, b); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

func replayAll(t *testing.T, w *WAL, schema *pathdb.Schema) [][]pathdb.Record {
	t.Helper()
	var got [][]pathdb.Record
	if err := w.ReplayContext(context.Background(), schema, func(batch []pathdb.Record) error {
		got = append(got, batch)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got
}

func TestWALRoundTrip(t *testing.T) {
	ex := paperex.New()
	path := walPath(t)
	w := openWAL(t, path)
	recs := ex.DB.Records
	batches := [][]pathdb.Record{recs[:2], recs[2:3], recs[3:6]}
	appendBatches(t, w, ex, batches)
	if w.Entries() != 3 {
		t.Fatalf("Entries = %d, want 3", w.Entries())
	}

	// Replay from the live handle, then from a fresh Open.
	for round := 0; round < 2; round++ {
		got := replayAll(t, w, ex.Schema)
		if len(got) != len(batches) {
			t.Fatalf("round %d: replayed %d batches, want %d", round, len(got), len(batches))
		}
		for i, b := range got {
			if len(b) != len(batches[i]) {
				t.Fatalf("round %d: batch %d has %d records, want %d", round, i, len(b), len(batches[i]))
			}
		}
		if round == 0 {
			if err := w.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			w = openWAL(t, path)
			if w.Torn() != nil {
				t.Fatalf("clean log reported torn: %v", w.Torn())
			}
			if w.Entries() != 3 {
				t.Fatalf("reopened Entries = %d, want 3", w.Entries())
			}
		}
	}
	defer w.Close()

	// Appending after a reopen extends the log.
	if err := w.Append(ex.DB.Schema, recs[6:7]); err != nil {
		t.Fatalf("Append after reopen: %v", err)
	}
	if got := replayAll(t, w, ex.Schema); len(got) != 4 {
		t.Fatalf("replayed %d batches after reopen append, want 4", len(got))
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	ex := paperex.New()
	path := walPath(t)
	w := openWAL(t, path)
	appendBatches(t, w, ex, [][]pathdb.Record{ex.DB.Records[:2], ex.DB.Records[2:4]})
	goodSize := w.Size()
	if err := w.Append(ex.DB.Schema, ex.DB.Records[4:6]); err != nil {
		t.Fatalf("Append: %v", err)
	}
	w.Close()

	// Simulate a crash mid-write: chop the last frame in half.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := goodSize + (st.Size()-goodSize)/2
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}

	w = openWAL(t, path)
	defer w.Close()
	if w.Torn() == nil {
		t.Fatal("expected Torn() to report the dropped tail")
	}
	if w.Entries() != 2 {
		t.Fatalf("Entries = %d, want the 2 intact batches", w.Entries())
	}
	if w.Size() != goodSize {
		t.Fatalf("Size = %d, want truncation back to %d", w.Size(), goodSize)
	}
	if got := replayAll(t, w, ex.Schema); len(got) != 2 {
		t.Fatalf("replayed %d batches, want 2", len(got))
	}
	// The file itself was truncated, so the next Open is clean.
	w.Close()
	w = openWAL(t, path)
	defer w.Close()
	if w.Torn() != nil {
		t.Fatalf("tail not healed: %v", w.Torn())
	}
}

func TestWALCorruptFrameDropsTail(t *testing.T) {
	ex := paperex.New()
	path := walPath(t)
	w := openWAL(t, path)
	appendBatches(t, w, ex, [][]pathdb.Record{ex.DB.Records[:2], ex.DB.Records[2:4], ex.DB.Records[4:6]})
	w.Close()

	// Flip a payload bit in the middle entry: it and everything after it
	// must be dropped (a later frame's position is only trustworthy if
	// every earlier frame is intact).
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	len0 := binary.LittleEndian.Uint32(buf[len(walMagic):])
	buf[len(walMagic)+walHeaderLen+int(len0)+walHeaderLen+2] ^= 0x40
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	w = openWAL(t, path)
	defer w.Close()
	if w.Torn() == nil {
		t.Fatal("expected corruption report")
	}
	if w.Entries() > 1 {
		t.Fatalf("Entries = %d, want at most the first intact entry", w.Entries())
	}
}

func TestWALBadMagicRejectedUntouched(t *testing.T) {
	path := walPath(t)
	content := []byte("definitely not a WAL\nbut some other file\n")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenContext(context.Background(), path)
	if !errors.As(err, new(*CorruptError)) {
		t.Fatalf("Open = %v, want *CorruptError", err)
	}
	after, rerr := os.ReadFile(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if string(after) != string(content) {
		t.Fatal("Open modified a non-WAL file")
	}
}

func TestWALReset(t *testing.T) {
	ex := paperex.New()
	w := openWAL(t, walPath(t))
	defer w.Close()
	appendBatches(t, w, ex, [][]pathdb.Record{ex.DB.Records[:3]})
	if err := w.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if w.Entries() != 0 || w.Size() != int64(len(walMagic)) {
		t.Fatalf("after Reset: entries=%d size=%d", w.Entries(), w.Size())
	}
	if got := replayAll(t, w, ex.Schema); len(got) != 0 {
		t.Fatalf("replayed %d batches after Reset, want 0", len(got))
	}
	// The log is still appendable.
	appendBatches(t, w, ex, [][]pathdb.Record{ex.DB.Records[3:5]})
	if got := replayAll(t, w, ex.Schema); len(got) != 1 {
		t.Fatalf("replayed %d batches, want 1", len(got))
	}
}

func TestWALReplaySchemaMismatch(t *testing.T) {
	ex := paperex.New()
	w := openWAL(t, walPath(t))
	defer w.Close()
	appendBatches(t, w, ex, [][]pathdb.Record{ex.DB.Records[:2]})

	// A schema with no vocabulary cannot parse the journal; Replay must
	// surface a typed corruption error, not garbage records.
	empty := &pathdb.Schema{}
	err := w.ReplayContext(context.Background(), empty, func([]pathdb.Record) error { return nil })
	if !errors.As(err, new(*CorruptError)) {
		t.Fatalf("Replay = %v, want *CorruptError", err)
	}
}

func TestWALReplayCallbackError(t *testing.T) {
	ex := paperex.New()
	w := openWAL(t, walPath(t))
	defer w.Close()
	appendBatches(t, w, ex, [][]pathdb.Record{ex.DB.Records[:1], ex.DB.Records[1:2]})
	sentinel := errors.New("stop")
	calls := 0
	err := w.ReplayContext(context.Background(), ex.Schema, func([]pathdb.Record) error {
		calls++
		return sentinel
	})
	if !errors.Is(err, sentinel) || calls != 1 {
		t.Fatalf("Replay = %v after %d calls, want sentinel after 1", err, calls)
	}
}

// faultFile wraps the real WAL file and fails the next write after
// admitting a prefix of it — the shape of an ENOSPC mid-frame. A negative
// admit leaves writes untouched. failTruncate additionally breaks the
// rollback path.
type faultFile struct {
	walFile
	admit        int // bytes of the next write to let through; -1 = no fault
	writeErr     error
	failTruncate bool
	writes       int
}

func (f *faultFile) Write(p []byte) (int, error) {
	f.writes++
	if f.admit < 0 {
		return f.walFile.Write(p)
	}
	admit := f.admit
	if admit > len(p) {
		admit = len(p)
	}
	f.admit = -1
	n, err := f.walFile.Write(p[:admit])
	if err != nil {
		return n, err
	}
	return n, f.writeErr
}

func (f *faultFile) Truncate(size int64) error {
	if f.failTruncate {
		return errors.New("injected truncate failure")
	}
	return f.walFile.Truncate(size)
}

// TestWALAppendWriteErrorRollsBack: a frame write that fails partway
// (header landed, payload did not) must not leave the partial frame in the
// file — the next Append would bury it, and a restart scan would stop there
// and silently drop every later acknowledged batch.
func TestWALAppendWriteErrorRollsBack(t *testing.T) {
	ex := paperex.New()
	path := walPath(t)
	w := openWAL(t, path)
	defer w.Close()
	appendBatches(t, w, ex, [][]pathdb.Record{ex.DB.Records[:2]})
	goodSize := w.Size()

	boom := errors.New("injected ENOSPC")
	ff := &faultFile{walFile: w.f, admit: walHeaderLen + 3, writeErr: boom}
	w.f = ff
	if err := w.Append(ex.DB.Schema, ex.DB.Records[2:4]); !errors.Is(err, boom) {
		t.Fatalf("Append with failing write = %v, want %v", err, boom)
	}
	if w.Size() != goodSize || w.Entries() != 1 {
		t.Fatalf("after failed Append: size=%d entries=%d, want size=%d entries=1", w.Size(), w.Entries(), goodSize)
	}

	// The log must still be appendable, and the new frame must land exactly
	// where the rolled-back one started.
	appendBatches(t, w, ex, [][]pathdb.Record{ex.DB.Records[4:6]})
	if got := replayAll(t, w, ex.Schema); len(got) != 2 || len(got[1]) != 2 {
		t.Fatalf("replayed %d batches after rollback, want 2 with the retried batch intact", len(got))
	}

	// A restart scan agrees: two intact entries, no torn tail.
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	w = openWAL(t, path)
	defer w.Close()
	if w.Torn() != nil {
		t.Fatalf("rollback left a torn tail: %v", w.Torn())
	}
	if w.Entries() != 2 {
		t.Fatalf("reopened Entries = %d, want 2", w.Entries())
	}
}

// TestWALAppendRollbackFailureLatches: when the partial frame cannot be
// truncated away, the WAL must refuse further work — appending past garbage
// would corrupt the log mid-file, beyond what a restart scan can heal.
func TestWALAppendRollbackFailureLatches(t *testing.T) {
	ex := paperex.New()
	w := openWAL(t, walPath(t))
	defer w.Close()
	appendBatches(t, w, ex, [][]pathdb.Record{ex.DB.Records[:2]})

	ff := &faultFile{walFile: w.f, admit: 3, writeErr: errors.New("injected ENOSPC"), failTruncate: true}
	w.f = ff
	if err := w.Append(ex.DB.Schema, ex.DB.Records[2:4]); err == nil {
		t.Fatal("Append with failing write and truncate succeeded")
	}
	if w.failed == nil {
		t.Fatal("failure not latched")
	}
	writesAtLatch := ff.writes
	if err := w.Append(ex.DB.Schema, ex.DB.Records[4:5]); err == nil {
		t.Fatal("Append on a failed WAL succeeded")
	}
	if err := w.Sync(); err == nil {
		t.Fatal("Sync on a failed WAL succeeded")
	}
	if ff.writes != writesAtLatch {
		t.Fatal("latched WAL still attempted a file write")
	}
}

// FuzzWALReplay feeds arbitrary bytes through Open+Replay: any input must
// yield typed errors and a clean partial replay — never a panic, and never
// a record the CRC did not vouch for.
func FuzzWALReplay(f *testing.F) {
	ex := paperex.New()
	// Seed with a valid two-entry log, a truncation, and a bit flip.
	dir := f.TempDir()
	seed := filepath.Join(dir, "seed.wal")
	w, err := OpenContext(context.Background(), seed)
	if err != nil {
		f.Fatal(err)
	}
	_ = w.Append(ex.DB.Schema, ex.DB.Records[:2])
	_ = w.Append(ex.DB.Schema, ex.DB.Records[2:4])
	_ = w.Sync()
	w.Close()
	valid, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("FCWALv1\n"))
	f.Add([]byte("garbage that is not a WAL at all"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		w, err := OpenContext(context.Background(), path)
		if err != nil {
			if !errors.As(err, new(*CorruptError)) {
				t.Fatalf("Open returned untyped error %v", err)
			}
			return
		}
		defer w.Close()
		err = w.ReplayContext(context.Background(), ex.Schema, func(batch []pathdb.Record) error {
			for _, r := range batch {
				if err := ex.Schema.ValidateRecord(r); err != nil {
					t.Fatalf("replay surfaced an invalid record: %v", err)
				}
			}
			return nil
		})
		if err != nil && !errors.As(err, new(*CorruptError)) {
			t.Fatalf("Replay returned untyped error %v", err)
		}
	})
}
