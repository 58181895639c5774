package core

// Cell digests and standalone graph codec helpers for the OLAP layer
// (internal/olap, internal/cluster).
//
// CellDigest hashes exactly the bytes Save's v2 encoder writes for a cell,
// so the exactness tests — a reconstructed cell must be byte-identical to
// the eagerly built one — compare the persisted representation, not a lossy
// in-memory one. The digest covers values, count, the redundancy flag,
// similarity bits, and the full flat flowgraph including exceptions; a cell
// whose exceptions cannot be refolded (they are holistic) therefore never
// digests equal to a fold.
//
// EncodeGraph/DecodeGraph expose the same flat columnar graph encoding for
// transport: the cluster router's /v2 scatter ships per-shard partial
// graphs as these bytes and folds them router-side.

import (
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"

	"flowcube/internal/flowgraph"
)

// CellDigest returns the SHA-256 of the cell's v2 snapshot encoding.
func CellDigest(cell *Cell) [sha256.Size]byte {
	return sha256.Sum256(appendCellV2(nil, cell))
}

// EncodeGraph serializes one flowgraph in the flat columnar encoding cuboid
// sections use (flatgraph.go). The bytes are deterministic for a given
// graph state.
func EncodeGraph(g *flowgraph.Graph) []byte {
	return appendFlatGraph(nil, g.Columns())
}

// DecodeGraph decodes bytes produced by EncodeGraph into a flowgraph at the
// cube's given path level. Trailing bytes are an error.
func (c *Cube) DecodeGraph(pathLevel int, data []byte) (*flowgraph.Graph, error) {
	levels := c.PathLevels()
	if pathLevel < 0 || pathLevel >= len(levels) {
		return nil, fmt.Errorf("core: decode graph: path level %d outside plan (have %d)", pathLevel, len(levels))
	}
	r := &byteReader{buf: data, section: "graph"}
	flat := &flowgraph.Flat{}
	if err := decodeFlatGraph(r, flat); err != nil {
		return nil, err
	}
	if r.rem() != 0 {
		return nil, r.corrupt("%d trailing bytes", r.rem())
	}
	return flowgraph.Unflatten(c.Schema.Location, levels[pathLevel], flat)
}

// ParseCuboidKey parses the canonical cuboid key format produced by
// CuboidSpec.Key ("l0,l1,...@pathlevel") back into a spec. It validates
// shape only, not whether the spec exists in any plan.
func ParseCuboidKey(key string) (CuboidSpec, error) {
	item, pl, ok := strings.Cut(key, "@")
	if !ok {
		return CuboidSpec{}, fmt.Errorf("core: cuboid key %q: missing @pathlevel", key)
	}
	pathLevel, err := strconv.Atoi(pl)
	if err != nil || pathLevel < 0 {
		return CuboidSpec{}, fmt.Errorf("core: cuboid key %q: bad path level %q", key, pl)
	}
	parts := strings.Split(item, ",")
	il := make(ItemLevel, len(parts))
	for i, p := range parts {
		l, err := strconv.Atoi(p)
		if err != nil || l < 0 {
			return CuboidSpec{}, fmt.Errorf("core: cuboid key %q: bad item level %q", key, p)
		}
		il[i] = l
	}
	return CuboidSpec{Item: il, PathLevel: pathLevel}, nil
}
