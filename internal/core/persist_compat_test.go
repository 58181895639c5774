package core_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"slices"
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

// ledgerSnapshot is testdata/table1_ledger.fcb, the fixture cube saved by a
// writer that still persisted the sub-δ ledger (the cube was built with
// Config.DeltaLedger), split into what the current writer saves for the
// same cube and the ledger section that writer put before the end section.
func ledgerSnapshot(t *testing.T) (old, plain, ledger []byte) {
	t.Helper()
	old, err := os.ReadFile("testdata/table1_ledger.fcb")
	if err != nil {
		t.Fatal(err)
	}
	plain = fixtureSnapshot(t)
	const endFrame = 6 // kind 0, length 0, CRC
	body := plain[:len(plain)-endFrame]
	if !bytes.HasPrefix(old, body) || !bytes.HasSuffix(old, plain[len(body):]) || len(old) == len(plain) {
		t.Fatalf("the fixture is not the current save with one section inserted before the end: %s", oracle.Diff(plain, old))
	}
	ledger = old[len(body) : len(old)-endFrame]
	if ledger[0] != 5 {
		t.Fatalf("the inserted section has kind %d, want the ledger's 5", ledger[0])
	}
	return old, plain, ledger
}

// TestLoadersSkipLedgerSection: a snapshot from a writer that persisted the
// sub-δ ledger loads under every loader, answers as the same cube without
// the section does, and saves again without it; the section is still framed
// and checked — at most one, after the cuboid sections, with a valid CRC.
func TestLoadersSkipLedgerSection(t *testing.T) {
	old, plain, ledger := ledgerSnapshot(t)

	eager, err := core.Load(bytes.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	if d := oracle.Diff(plain, oracle.Save(t, eager)); d != "" {
		t.Errorf("Load → Save: %s", d)
	}
	lazy := oracle.Open(t, oracle.File(t, old))
	if err := lazy.Verify(context.Background()); err != nil {
		t.Fatal(err)
	}
	if d := oracle.Diff(plain, oracle.Save(t, lazy)); d != "" {
		t.Errorf("LoadCubeLazy → Save: %s", d)
	}
	ref, err := core.Load(bytes.NewReader(plain))
	if err != nil {
		t.Fatal(err)
	}
	q := core.Query{Spec: ref.MaterializedSpecs()[0], Values: ref.Cuboid(ref.MaterializedSpecs()[0]).SortedCells()[0].Values}
	want := answerSig(ref.Answer(context.Background(), q))
	for name, c := range map[string]*core.Cube{"Load": eager, "LoadCubeLazy": lazy} {
		if got := answerSig(c.Answer(context.Background(), q)); !slices.Equal(got, want) {
			t.Errorf("%s answers %v, want %v", name, got, want)
		}
	}
	meta, err := core.LoadMeta(bytes.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	if meta.MinCount() != ref.MinCount() {
		t.Errorf("LoadMeta: δ %d, want %d", meta.MinCount(), ref.MinCount())
	}

	body, end := plain[:len(plain)-6], plain[len(plain)-6:]
	frames := sectionFrames(t, plain)
	cuboid := frames[len(frames)-2] // the last cuboid section; the end section follows it
	badCRC := append([]byte(nil), ledger...)
	badCRC[len(badCRC)-1] ^= 0xff
	for name, snap := range map[string][]byte{
		"two ledger sections":             bytes.Join([][]byte{body, ledger, ledger, end}, nil),
		"a cuboid after the ledger":       bytes.Join([][]byte{body[:len(body)-len(cuboid)], ledger, cuboid, end}, nil),
		"a ledger section with a bad CRC": bytes.Join([][]byte{body, badCRC, end}, nil),
	} {
		if _, err := core.Load(bytes.NewReader(snap)); err == nil {
			t.Errorf("%s: Load accepted it", name)
		} else {
			wantCorrupt(t, name, err)
		}
		if _, err := core.LoadCubeLazy(oracle.File(t, snap), core.LazyOptions{}); err == nil {
			t.Errorf("%s: LoadCubeLazy accepted it", name)
		}
	}
}

// sectionFrames splits a snapshot into its framed sections, each with its
// kind, length and CRC.
func sectionFrames(t *testing.T, snap []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for off := len("FCUBEv2\n"); off < len(snap); {
		n, w := binary.Uvarint(snap[off+1:])
		if w <= 0 {
			t.Fatalf("bad frame at offset %d", off)
		}
		end := off + 1 + w + int(n) + 4
		out = append(out, snap[off:end])
		off = end
	}
	return out
}
