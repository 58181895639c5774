package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/oracle"
)

// TestSaveFileKeepsDestinationOnError: a save that fails — a closed lazy
// cube's, or one whose disk fills up at any write Save makes, or at any
// write that reaches the file through SaveFile's buffer, its final flush
// included — leaves the snapshot already at the destination byte for byte
// and no temporary file beside it; Save itself returns the injected error.
// A save that succeeds replaces the file with exactly Save's bytes.
func TestSaveFileKeepsDestinationOnError(t *testing.T) {
	_, cube := oracle.Table1(t, oracle.Cuts, oracle.Mined(0.5))
	old := oracle.Save(t, cube)
	path := oracle.File(t, old)
	kept := func(what string) {
		t.Helper()
		data, err := os.ReadFile(path)
		entries, _ := os.ReadDir(filepath.Dir(path))
		if err != nil || !bytes.Equal(data, old) || len(entries) != 1 {
			t.Fatalf("%s: the destination holds %d bytes (%v) beside %d other files, want the %d it held",
				what, len(data), err, len(entries)-1, len(old))
		}
	}

	_, closed := oracle.Twin(t, cube, core.LazyOptions{})
	if err := closed.Close(); err != nil {
		t.Fatal(err)
	}
	if err := closed.SaveFile(path); err == nil {
		t.Fatal("SaveFile of a closed lazy cube succeeded")
	}
	kept("a closed lazy cube's save")

	full := func(k int) func(w io.Writer) io.Writer {
		return func(w io.Writer) io.Writer { return &oracle.FailingWriter{W: w, FailAt: k, Err: syscall.ENOSPC} }
	}
	count := &oracle.FailingWriter{W: io.Discard}
	if err := cube.Save(count); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= count.Writes; k++ {
		if err := cube.Save(full(k)(io.Discard)); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("Save with ENOSPC at write %d of %d: %v", k, count.Writes, err)
		}
	}

	// The file sees the buffer's writes, not Save's: a snapshot several
	// buffers long, so that some reach it before the final flush.
	ds := oracle.Dataset(5, 300)
	big := oracle.Build(t, ds.DB, core.Config{MinCount: 3, Plan: ds.DefaultPlan()})
	old = oracle.Save(t, big)
	path = oracle.File(t, old)
	files := &oracle.FailingWriter{}
	if err := big.SaveFileThrough(path, func(w io.Writer) io.Writer { files.W = w; return files }); err != nil {
		t.Fatal(err)
	}
	kept("a save of the same bytes")
	if files.Writes < 3 {
		t.Fatalf("a %d-byte snapshot reached the file in %d writes; the test wants some before the flush", len(old), files.Writes)
	}
	for k := 1; k <= files.Writes; k++ {
		if err := big.SaveFileThrough(path, full(k)); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("SaveFile with ENOSPC at file write %d of %d: %v", k, files.Writes, err)
		}
		kept(fmt.Sprintf("ENOSPC at file write %d", k))
	}

	pruned, _ := oracle.Pruned(t, cube, oracle.Coarse)
	if err := pruned.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	old = oracle.Save(t, pruned)
	kept("a successful save")
}
