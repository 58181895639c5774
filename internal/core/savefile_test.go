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
// cube's, or one whose disk fills up at any write Save makes — leaves the
// snapshot already at the destination byte for byte and no temporary file
// beside it; Save itself returns the injected error. A save that succeeds
// replaces the file with exactly Save's bytes.
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

	count := &oracle.FailingWriter{W: io.Discard}
	if err := cube.Save(count); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= count.Writes; k++ {
		full := func(w io.Writer) io.Writer { return &oracle.FailingWriter{W: w, FailAt: k, Err: syscall.ENOSPC} }
		if err := cube.Save(full(io.Discard)); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("Save with ENOSPC at write %d of %d: %v", k, count.Writes, err)
		}
		if err := cube.SaveFileThrough(path, full); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("SaveFile with ENOSPC at write %d of %d: %v", k, count.Writes, err)
		}
		kept(fmt.Sprintf("ENOSPC at write %d", k))
	}

	pruned, _ := oracle.Pruned(t, cube, oracle.Coarse)
	if err := pruned.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	old = oracle.Save(t, pruned)
	kept("a successful save")
}
