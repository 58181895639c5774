//go:build !linux || nommap

package core

// pread fallback for platforms without the mmap path (or builds with the
// nommap tag, which scripts/check.sh exercises): views are read through
// io.ReaderAt into fresh buffers, so the lazy loader behaves identically —
// just with one allocation and one pread per section touch instead of a
// zero-copy subslice.

import (
	"fmt"
	"io"
	"os"
)

// snapMapped reports whether this build serves lazy cubes from an mmap
// (false here; true in the linux mmap path).
const snapMapped = false

type preadData struct {
	f *os.File
	n int64
}

// openSnapshotData wraps f for positional reads and takes ownership of it:
// the descriptor stays open for the data's lifetime and close releases it.
func openSnapshotData(f *os.File, size int64) (snapData, error) {
	return &preadData{f: f, n: size}, nil
}

func (d *preadData) size() int64 { return d.n }

// view reads no further than the size the file had when opened, so a frame's
// claimed length allocates nothing past it.
func (d *preadData) view(off, n int64) ([]byte, error) {
	buf := make([]byte, max(min(n, d.n-off), 0))
	if _, err := d.f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("core: snapshot pread at %d: %w", off, err)
	}
	if int64(len(buf)) < n {
		return buf, io.EOF
	}
	return buf, nil
}

func (d *preadData) close() error {
	if d.f == nil {
		return nil
	}
	f := d.f
	d.f = nil
	return f.Close()
}
