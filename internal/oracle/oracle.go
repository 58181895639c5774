// Package oracle checks the repository's byte-identity contracts in one
// place. The flowgraph measure is algebraic (Lemma 4.2), so an append, a
// fork, a reload, a lazy open, a split + merge and a fold must each save
// exactly the bytes one eager core.Build over the same records saves. The
// package holds the digest, the reference build, the check that names the
// first section a candidate departs from the reference in, the fixtures the
// contract tests share, a step table for chains of those moves, and a
// writer that fails on cue. Only tests import it.
package oracle

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
	"sync"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/hierarchy"
	"flowcube/internal/pathdb"
)

// Save returns the cube's snapshot bytes.
func Save(t testing.TB, c *core.Cube) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return buf.Bytes()
}

// Digest is the hex SHA-256 of the cube's snapshot bytes.
func Digest(t testing.TB, c *core.Cube) string {
	t.Helper()
	return sum(Save(t, c))
}

func sum(snap []byte) string {
	s := sha256.Sum256(snap)
	return hex.EncodeToString(s[:])
}

// reference is the cached digest of one reference build.
type reference struct {
	once   sync.Once
	digest string
	err    error
}

// refs maps a refKey to its *reference: a test binary builds each
// reference once, and keeps only its digest, never the cube.
var refs sync.Map

// refKey identifies a reference build: the records and the hierarchies they
// name, and every config field that reaches Build.
func refKey(db *pathdb.DB, cfg core.Config) string {
	h := sha256.New()
	for _, hier := range append([]*hierarchy.Hierarchy{db.Schema.Location}, db.Schema.Dims...) {
		for id := hierarchy.NodeID(0); int(id) < hier.Len(); id++ {
			fmt.Fprintf(h, "%s %d;", hier.Name(id), hier.Parent(id))
		}
	}
	_, _ = db.WriteTo(h) // a hash never fails a write
	var plan strings.Builder
	for _, pl := range cfg.Plan.PathLevels {
		plan.WriteString(pl.Key() + " ")
	}
	for _, spec := range cfg.Cuboids {
		plan.WriteString(spec.Key() + " ")
	}
	cfg.Plan.PathLevels, cfg.Cuboids = nil, nil
	return fmt.Sprintf("%x|%+v|%s", h.Sum(nil), cfg, plan.String())
}

// Check reports whether the candidate saves what an eager core.Build under
// cfg over a fresh copy of db's records saves. On a mismatch it rebuilds
// the reference and names the first section the candidate departs from it
// in.
func Check(t testing.TB, what string, c *core.Cube, db *pathdb.DB, cfg core.Config) bool {
	t.Helper()
	v, _ := refs.LoadOrStore(refKey(db, cfg), &reference{})
	r := v.(*reference)
	r.once.Do(func() {
		var cube *core.Cube
		var buf bytes.Buffer
		if cube, r.err = core.Build(Prefix(db, db.Len()), cfg); r.err == nil {
			r.err = cube.Save(&buf)
		}
		r.digest = sum(buf.Bytes())
	})
	if r.err != nil {
		t.Fatalf("%s: reference build: %v", what, r.err)
	}
	got := Save(t, c)
	if sum(got) == r.digest {
		return true
	}
	t.Errorf("%s: saves other bytes than a full build over its %d records: %s",
		what, db.Len(), Diff(Save(t, Build(t, Prefix(db, db.Len()), cfg)), got))
	return false
}

// Same reports whether got saves the bytes want saves, naming the first
// section they differ in when not.
func Same(t testing.TB, what string, want, got *core.Cube) bool {
	t.Helper()
	if d := Diff(Save(t, want), Save(t, got)); d != "" {
		t.Errorf("%s: %s", what, d)
		return false
	}
	return true
}

// Section kinds of the snapshot framing (core/snapshotv2.go) that tests
// rewrite; sectionNames names every kind by its number.
const (
	SecHeader byte = 1
	SecCuboid byte = 4
)

var sectionNames = []string{"end", "header", "hierarchies", "plan", "cuboid", "ledger"}

const magic = "FCUBEv2\n"

// section is one framed section of a snapshot.
type section struct {
	kind    byte
	payload []byte
}

// sections splits a snapshot into its framed sections; ok is false when the
// framing is broken.
func sections(snap []byte) (out []section, ok bool) {
	if !bytes.HasPrefix(snap, []byte(magic)) {
		return nil, false
	}
	for off := len(magic); off < len(snap); {
		n, w := binary.Uvarint(snap[off+1:])
		start := off + 1 + w
		if w <= 0 || start+4 > len(snap) || n > uint64(len(snap)-start-4) {
			return out, false
		}
		out = append(out, section{snap[off], snap[start : start+int(n)]})
		off = start + int(n) + 4
	}
	return out, true
}

// Diff names the first section of got that departs from want — the header
// (or another metadata section), or a cuboid and the first cell in it that
// differs — and is empty when the snapshots are identical.
func Diff(want, got []byte) string {
	if bytes.Equal(want, got) {
		return ""
	}
	ws, wok := sections(want)
	gs, gok := sections(got)
	if !wok || !gok {
		return fmt.Sprintf("framing differs: %d bytes, want %d", len(got), len(want))
	}
	for i := 0; i < len(ws) && i < len(gs); i++ {
		w, g := ws[i], gs[i]
		switch {
		case w.kind == g.kind && bytes.Equal(w.payload, g.payload):
		case w.kind == SecCuboid || g.kind == SecCuboid:
			return cuboidDiff(want, got)
		case w.kind != g.kind:
			return fmt.Sprintf("section %d is a %s section, want %s", i, name(g.kind), name(w.kind))
		default:
			return name(w.kind) + " section differs"
		}
	}
	return fmt.Sprintf("%d sections, want %d", len(gs), len(ws))
}

func name(kind byte) string {
	if int(kind) < len(sectionNames) {
		return sectionNames[kind]
	}
	return fmt.Sprintf("kind-%d", kind)
}

// cuboidDiff loads both snapshots and names the first cuboid, in key order,
// whose cells differ, and the first such cell.
func cuboidDiff(want, got []byte) string {
	wc, werr := core.Load(bytes.NewReader(want))
	gc, gerr := core.Load(bytes.NewReader(got))
	if werr != nil || gerr != nil {
		return fmt.Sprintf("cuboid sections differ (load: %v, reference load: %v)", gerr, werr)
	}
	for _, spec := range wc.MaterializedSpecs() {
		if gc.Cuboid(spec) == nil {
			return "cuboid " + spec.Key() + " is missing"
		}
		if d := cellDiff(wc, wc.Cuboid(spec), gc.Cuboid(spec)); d != "" {
			return "cuboid " + spec.Key() + ": " + d
		}
	}
	for _, spec := range gc.MaterializedSpecs() {
		if wc.Cuboid(spec) == nil {
			return "cuboid " + spec.Key() + " is not in the reference"
		}
	}
	return "cuboid sections differ outside their cells"
}

func cellDiff(c *core.Cube, want, got *core.Cuboid) string {
	ws, gs := want.SortedCells(), got.SortedCells()
	for i, j := 0, 0; i < len(ws) || j < len(gs); i, j = i+1, j+1 {
		switch {
		case j == len(gs) || i < len(ws) && core.CompareCells(ws[i].Values, gs[j].Values) < 0:
			return "cell " + core.FormatCell(c.Schema, ws[i].Values) + " is missing"
		case i == len(ws) || core.CompareCells(ws[i].Values, gs[j].Values) > 0:
			return "cell " + core.FormatCell(c.Schema, gs[j].Values) + " is not in the reference"
		case core.CellDigest(ws[i]) != core.CellDigest(gs[j]):
			return fmt.Sprintf("cell %s differs (count %d, want %d)",
				core.FormatCell(c.Schema, ws[i].Values), gs[j].Count, ws[i].Count)
		}
	}
	return ""
}

// RewriteSection applies mutate to the payload of the idx-th section of the
// given kind and re-frames it with a fresh length and a valid checksum:
// corruption an open-time checksum check cannot catch.
func RewriteSection(t testing.TB, snap []byte, kind byte, idx int, mutate func([]byte) []byte) []byte {
	t.Helper()
	secs, ok := sections(snap)
	if !ok {
		t.Fatal("RewriteSection: not a framed snapshot")
	}
	out := []byte(magic)
	seen := 0
	for _, s := range secs {
		payload := s.payload
		if s.kind == kind {
			if seen == idx {
				payload = mutate(append([]byte(nil), payload...))
			}
			seen++
		}
		out = append(binary.AppendUvarint(append(out, s.kind), uint64(len(payload))), payload...)
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	}
	if seen <= idx {
		t.Fatalf("RewriteSection: %d %s sections, want more than %d", seen, name(kind), idx)
	}
	return out
}

// FailingWriter passes writes on to W until the FailAt-th (counting from
// one), which it fails with Err without writing a byte: a disk that fills up
// partway through a snapshot. Writes counts the calls; FailAt 0 never fails.
type FailingWriter struct {
	W      io.Writer
	FailAt int
	Err    error
	Writes int
}

func (f *FailingWriter) Write(p []byte) (int, error) {
	if f.Writes++; f.Writes == f.FailAt {
		return 0, f.Err
	}
	return f.W.Write(p)
}
