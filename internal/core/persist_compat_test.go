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

// olderVersions are copies of the fixture snapshot whose header is an
// older format version's, each refused by every loader: version 2, which
// had no flags byte after ε and τ, and version 3, whose cuboid sections
// carried every node's transition distribution beside its durations.
func olderVersions(t testing.TB) map[string][]byte {
	t.Helper()
	snap := fixtureSnapshot(t)
	return map[string][]byte{
		"version 2": oracle.RewriteSection(t, snap, oracle.SecHeader, 0, func(p []byte) []byte {
			_, n := binary.Varint(p[1:])
			flags := 1 + n + 16
			return append(append([]byte{2}, p[1:flags]...), p[flags+1:]...)
		}),
		"version 3": oracle.RewriteSection(t, snap, oracle.SecHeader, 0, func(p []byte) []byte {
			return append([]byte{3}, p[1:]...)
		}),
	}
}

// TestLoadersRefuseVersion2Header: a snapshot of an older format version is
// refused by every loader with the typed rebuild instruction a pre-v2 gob
// snapshot gets. A version-2 header cannot say whether the cube mined
// exceptions, so an append to it would mine differently from the build
// that wrote it; a version-3 file carries a transition column the decoder
// no longer reads.
func TestLoadersRefuseVersion2Header(t *testing.T) {
	for name, data := range olderVersions(t) {
		t.Run(name, func(t *testing.T) {
			_, err := core.Load(bytes.NewReader(data))
			wantNotV2(t, "Load", err)
			_, err = core.LoadMeta(bytes.NewReader(data))
			wantNotV2(t, "LoadMeta", err)
			_, err = core.LoadCubeLazy(oracle.File(t, data), core.LazyOptions{})
			wantNotV2(t, "LoadCubeLazy", err)
		})
	}
}

// retiredLayouts are copies of the fixture snapshot that carry, under the
// current version, what only older writers wrote: the single-stage
// exceptions header flag (bit 2), and a section of the sub-δ ledger's kind
// (5) before the end section.
func retiredLayouts(t testing.TB) map[string][]byte {
	t.Helper()
	snap := fixtureSnapshot(t)
	const end = 6 // the end section: kind 0, length 0, and the CRC-32C of nothing, 0
	ledger := []byte{5, 0, 0, 0, 0, 0}
	return map[string][]byte{
		"single-stage flag": oracle.RewriteSection(t, snap, oracle.SecHeader, 0, func(p []byte) []byte {
			_, n := binary.Varint(p[1:])
			p = append([]byte(nil), p...)
			p[1+n+16] |= 2
			return p
		}),
		"ledger section": bytes.Join([][]byte{snap[:len(snap)-end], ledger, snap[len(snap)-end:]}, nil),
	}
}

// TestLoadersRefuseRetiredLayouts: Load and a lazy open refuse the header
// flag and the section kind only older writers wrote as corrupt, and name
// them.
func TestLoadersRefuseRetiredLayouts(t *testing.T) {
	for name, data := range retiredLayouts(t) {
		t.Run(name, func(t *testing.T) {
			_, err := core.Load(bytes.NewReader(data))
			wantCorrupt(t, "Load", err)
			_, lerr := core.LoadCubeLazy(oracle.File(t, data), core.LazyOptions{})
			wantCorrupt(t, "LoadCubeLazy", lerr)
			if !strings.Contains(err.Error(), "unknown") || lerr.Error() != err.Error() {
				t.Errorf("Load: %v; LoadCubeLazy: %v; want the same error naming an unknown flag or kind", err, lerr)
			}
		})
	}
}
