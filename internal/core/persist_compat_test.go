package core_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"strings"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/oracle"
)

// nonV2Inputs are byte streams every loader must reject: a pre-v2 gob
// snapshot of the fixture cube (checked in; nothing writes the format any
// more), text, and inputs shorter than the magic.
func nonV2Inputs(t testing.TB) map[string][]byte {
	t.Helper()
	v1, err := os.ReadFile("testdata/cube_v1.gob")
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"v1":      v1,
		"garbage": []byte("not a snapshot at all"),
		"empty":   {},
		"short":   []byte("FCU"),
	}
}

// wantNotV2 asserts err is the rejection CheckMagic gives a non-v2 input:
// typed, and telling the operator how to get a loadable snapshot.
func wantNotV2(t testing.TB, name string, err error) {
	t.Helper()
	var corrupt *core.CorruptSnapshotError
	if !errors.As(err, &corrupt) {
		t.Fatalf("%s: err = %v, want *CorruptSnapshotError", name, err)
	}
	if !strings.Contains(err.Error(), "rebuilt from the path database") {
		t.Errorf("%s: %q does not say how to rebuild", name, err)
	}
}

// TestLoadersRefuseVersion2Header: a version-2 snapshot, whose header cannot
// say whether the cube mined exceptions, is refused by every loader with the
// typed rebuild instruction a pre-v2 gob snapshot gets — an append to it
// would mine differently from the build that wrote it.
func TestLoadersRefuseVersion2Header(t *testing.T) {
	v2 := oracle.RewriteSection(t, fixtureSnapshot(t), oracle.SecHeader, 0, func(p []byte) []byte {
		// Version 2 had no flags byte after ε and τ.
		_, n := binary.Varint(p[1:])
		flags := 1 + n + 16
		return append(append([]byte{2}, p[1:flags]...), p[flags+1:]...)
	})
	_, err := core.Load(bytes.NewReader(v2))
	wantNotV2(t, "Load", err)
	_, err = core.LoadMeta(bytes.NewReader(v2))
	wantNotV2(t, "LoadMeta", err)
	_, err = core.LoadCubeLazy(oracle.File(t, v2), core.LazyOptions{})
	wantNotV2(t, "LoadCubeLazy", err)
}
