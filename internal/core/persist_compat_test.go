package core_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flowcube/internal/core"
)

func fixtureCube(t testing.TB) *core.Cube {
	_, cube := buildExample(t, core.Config{
		MinCount:              2,
		Epsilon:               0.1,
		Tau:                   0.5,
		MineExceptions:        true,
		SingleStageExceptions: true,
	})
	cube.MarkRedundancy(0.5)
	return cube
}

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

// wantNotV2 asserts err is the rejection checkMagic gives a non-v2 input:
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
	var buf bytes.Buffer
	if err := fixtureCube(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	const secHeader = 1
	v2 := rewriteSection(t, buf.Bytes(), secHeader, 0, func(p []byte) []byte {
		// Version 2 had no flags byte after ε and τ.
		_, n := binary.Varint(p[1:])
		flags := 1 + n + 16
		return append(append([]byte{2}, p[1:flags]...), p[flags+1:]...)
	})
	_, err := core.Load(bytes.NewReader(v2))
	wantNotV2(t, "Load", err)
	_, err = core.LoadMeta(bytes.NewReader(v2))
	wantNotV2(t, "LoadMeta", err)
	path := filepath.Join(t.TempDir(), "v2.fcb")
	if err := os.WriteFile(path, v2, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = core.LoadCubeLazy(path, core.LazyOptions{})
	wantNotV2(t, "LoadCubeLazy", err)
}
