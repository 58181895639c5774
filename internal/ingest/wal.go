// Package ingest is the serving layer's write path: a durable write-ahead
// log that journals append batches before they fold into the cube, and a
// group-commit batcher that coalesces concurrent appends into one delta
// fold (see committer.go and DESIGN.md §11).
package ingest

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"flowcube/internal/pathdb"
)

// WAL framing, mirroring the v2 snapshot conventions (little-endian
// lengths, CRC-32C over the payload):
//
//	magic  "FCWALv1\n" (8 bytes)
//	entry  [u32 payload length][u32 CRC-32C(payload)][payload]
//
// One entry journals one accepted append batch; the payload is the batch in
// the path-database text format (pathdb.DB.WriteTo), so a journal is
// human-inspectable and replays through the ordinary parser. Entries are
// buffered per Append and made durable by Sync — the group committer calls
// Sync once per commit group, amortizing the fsync over every request in
// the group.
//
// Recovery semantics: Open scans the existing file frame by frame and
// truncates a torn or corrupt tail (a crash mid-write leaves a partial
// frame; everything before it is intact and everything after it was never
// acknowledged). A file that does not start with the WAL magic is rejected
// with a *CorruptError rather than truncated — it is probably not a WAL.

const walMagic = "FCWALv1\n"

// walHeaderLen is the per-entry frame header: u32 length + u32 CRC.
const walHeaderLen = 8

// maxWALEntry bounds a single entry's payload during scan/replay, so a
// corrupt length field cannot ask for a multi-gigabyte allocation. Append
// batches are bounded by the server's MaxAppendBytes (64 MiB default);
// 256 MiB leaves generous headroom.
const maxWALEntry = 256 << 20

var walCRCTable = crc32.MakeTable(crc32.Castagnoli)

// CorruptError reports a WAL whose content could not be accepted: a bad
// magic, or — for diagnostics after Open truncated — the reason the tail
// was dropped.
type CorruptError struct {
	// Offset is the byte offset of the first rejected byte.
	Offset int64
	// Entry is the index of the first rejected entry.
	Entry int
	// Reason describes the rejection.
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("ingest: corrupt WAL at offset %d (entry %d): %s", e.Offset, e.Entry, e.Reason)
}

// walFile is the slice of *os.File the WAL uses. Tests substitute a
// fault-injecting implementation to exercise write-error recovery.
type walFile interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.Seeker
	io.Closer
	Truncate(size int64) error
	Sync() error
	Stat() (os.FileInfo, error)
	WriteString(s string) (int, error)
}

// WAL is an append-only journal of accepted append batches. Methods are not
// safe for concurrent use; the group committer is the single writer.
type WAL struct {
	f       walFile
	entries int
	size    int64 // valid bytes (magic + intact frames)
	torn    *CorruptError
	failed  error // set when a failed write could not be rolled back
	scratch bytes.Buffer
}

// OpenContext opens (or creates) the WAL at path, scans existing entries, and
// truncates any torn tail so subsequent appends extend a valid log. A
// non-empty file that does not start with the WAL magic is rejected with a
// *CorruptError and left untouched. ctx cancels the startup scan between
// frames (useful when a large journal delays server boot).
func OpenContext(ctx context.Context, path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	w := &WAL{f: f}
	if err := w.scan(ctx); err != nil {
		_ = f.Close() // the scan error is the actionable one
		return nil, err
	}
	if _, err := f.Seek(w.size, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, err
	}
	return w, nil
}

// scan validates the file: checks the magic (writing it into an empty
// file), walks the frames, records the valid prefix, and truncates a torn
// tail (recorded in w.torn for logging).
func (w *WAL) scan(ctx context.Context) error {
	st, err := w.f.Stat()
	if err != nil {
		return err
	}
	if st.Size() == 0 {
		if _, err := w.f.WriteString(walMagic); err != nil {
			return err
		}
		if err := w.f.Sync(); err != nil {
			return err
		}
		w.size = int64(len(walMagic))
		return nil
	}
	var magic [len(walMagic)]byte
	if _, err := io.ReadFull(w.f, magic[:]); err != nil {
		return &CorruptError{Offset: 0, Reason: fmt.Sprintf("short magic: %v", err)}
	}
	if string(magic[:]) != walMagic {
		return &CorruptError{Offset: 0, Reason: fmt.Sprintf("bad magic %q, want %q", magic, walMagic)}
	}
	offset := int64(len(walMagic))
	var hdr [walHeaderLen]byte
	for offset < st.Size() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := io.ReadFull(w.f, hdr[:]); err != nil {
			w.torn = &CorruptError{Offset: offset, Entry: w.entries, Reason: fmt.Sprintf("short frame header: %v", err)}
			break
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		want := binary.LittleEndian.Uint32(hdr[4:8])
		if length > maxWALEntry {
			w.torn = &CorruptError{Offset: offset, Entry: w.entries, Reason: fmt.Sprintf("entry length %d exceeds the %d-byte bound", length, maxWALEntry)}
			break
		}
		if offset+walHeaderLen+int64(length) > st.Size() {
			w.torn = &CorruptError{Offset: offset, Entry: w.entries, Reason: fmt.Sprintf("truncated entry: %d payload bytes claimed, %d in file", length, st.Size()-offset-walHeaderLen)}
			break
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(w.f, payload); err != nil {
			w.torn = &CorruptError{Offset: offset, Entry: w.entries, Reason: fmt.Sprintf("short payload: %v", err)}
			break
		}
		if got := crc32.Checksum(payload, walCRCTable); got != want {
			w.torn = &CorruptError{Offset: offset, Entry: w.entries, Reason: fmt.Sprintf("CRC mismatch: computed %08x, stored %08x", got, want)}
			break
		}
		offset += walHeaderLen + int64(length)
		w.entries++
	}
	w.size = offset
	if w.torn != nil && offset < st.Size() {
		if err := w.f.Truncate(offset); err != nil {
			return fmt.Errorf("ingest: truncate torn WAL tail: %w", err)
		}
		if err := w.f.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// Torn reports the corruption that made Open drop a tail, nil when the log
// was clean. The tail is already truncated; this is diagnostic only.
func (w *WAL) Torn() *CorruptError { return w.torn }

// Entries reports the number of intact journaled batches.
func (w *WAL) Entries() int { return w.entries }

// Size reports the journal's size in bytes (magic plus intact frames).
func (w *WAL) Size() int64 { return w.size }

// Append journals one batch. The write is buffered by the OS; call Sync to
// make it durable before acknowledging the batch.
//
// A failed write (ENOSPC, say) is rolled back: the file is truncated to the
// last intact frame and the offset restored, so the log stays appendable
// and a restart scan never stops early at a garbage partial frame — which
// would silently drop every later batch that was acknowledged as durable.
// If the rollback itself fails the WAL latches a failure and rejects
// further Appends and Syncs until reopened.
func (w *WAL) Append(schema *pathdb.Schema, batch []pathdb.Record) error {
	if w.failed != nil {
		return fmt.Errorf("ingest: WAL has a partial frame it could not remove; reopen to recover: %w", w.failed)
	}
	// Build the whole frame (header + payload) in the scratch buffer and
	// write it with one call: a short write can still tear it, but there is
	// no window where the header is durable and the payload write was never
	// attempted.
	w.scratch.Reset()
	var hdr [walHeaderLen]byte // placeholder; patched once the payload length and CRC are known
	w.scratch.Write(hdr[:])
	db := &pathdb.DB{Schema: schema, Records: batch}
	if _, err := db.WriteTo(&w.scratch); err != nil {
		return err
	}
	frame := w.scratch.Bytes()
	payload := frame[walHeaderLen:]
	if len(payload) > maxWALEntry {
		return fmt.Errorf("ingest: batch renders to %d bytes, exceeding the %d-byte WAL entry bound", len(payload), maxWALEntry)
	}
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, walCRCTable))
	if _, err := w.f.Write(frame); err != nil {
		return w.rollbackPartialFrame(err)
	}
	w.size += int64(len(frame))
	w.entries++
	return nil
}

// rollbackPartialFrame restores the invariant that the file ends at w.size
// after a failed frame write, returning writeErr on success. When the file
// cannot be restored the failure is latched: the OS offset may sit past
// garbage bytes, so further appends would bury a corrupt frame mid-log.
func (w *WAL) rollbackPartialFrame(writeErr error) error {
	if err := w.f.Truncate(w.size); err != nil {
		w.failed = fmt.Errorf("append write: %v; truncate partial frame: %w", writeErr, err)
		return w.failed
	}
	if _, err := w.f.Seek(w.size, io.SeekStart); err != nil {
		w.failed = fmt.Errorf("append write: %v; re-seek after truncate: %w", writeErr, err)
		return w.failed
	}
	return writeErr
}

// Sync flushes journaled entries to stable storage.
func (w *WAL) Sync() error {
	if w.failed != nil {
		return fmt.Errorf("ingest: WAL has a partial frame it could not remove; reopen to recover: %w", w.failed)
	}
	return w.f.Sync()
}

// ReplayContext decodes every intact entry against schema and hands each
// batch to fn in journal order; ctx cancels between entries. Decoding reads
// the file independently of the append offset, so it is safe before or
// between appends (but not concurrently with them).
func (w *WAL) ReplayContext(ctx context.Context, schema *pathdb.Schema, fn func(batch []pathdb.Record) error) error {
	r := io.NewSectionReader(w.f, int64(len(walMagic)), w.size-int64(len(walMagic)))
	var hdr [walHeaderLen]byte
	for i := 0; i < w.entries; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return fmt.Errorf("ingest: replay entry %d header: %w", i, err)
		}
		payload := make([]byte, binary.LittleEndian.Uint32(hdr[0:4]))
		if _, err := io.ReadFull(r, payload); err != nil {
			return fmt.Errorf("ingest: replay entry %d payload: %w", i, err)
		}
		db, err := pathdb.Read(bytes.NewReader(payload), schema)
		if err != nil {
			// The CRC held but the payload does not parse against this
			// schema: the journal belongs to a different source. Surface it
			// as corruption rather than folding garbage.
			return &CorruptError{Offset: -1, Entry: i, Reason: fmt.Sprintf("entry does not parse against the serving schema: %v", err)}
		}
		if err := fn(db.Records); err != nil {
			return err
		}
	}
	return nil
}

// Reset discards every journaled entry, truncating the log back to its
// magic. The serving layer calls it on reload: a reload re-reads the
// loader's source of truth and deliberately discards appended records, so
// replaying them afterwards would double-apply.
func (w *WAL) Reset() error {
	if err := w.f.Truncate(int64(len(walMagic))); err != nil {
		return err
	}
	if _, err := w.f.Seek(int64(len(walMagic)), io.SeekStart); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.entries = 0
	w.size = int64(len(walMagic))
	w.torn = nil
	w.failed = nil // the truncate re-established the end-at-size invariant
	return nil
}

// Close closes the journal file.
func (w *WAL) Close() error { return w.f.Close() }
