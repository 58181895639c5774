// Package incr is a shim over core.ApplyDelta, which owns the append path.
// Its only caller is benchmark/layers.go, which compiles against these two
// names; the change that reopens the benchmark harness deletes the package.
package incr

import (
	"flowcube/internal/core"
	"flowcube/internal/pathdb"
)

// Stats is core.DeltaStats.
type Stats = core.DeltaStats

// ApplyDelta is core.ApplyDelta.
func ApplyDelta(cube *core.Cube, db *pathdb.DB, batch []pathdb.Record) (*Stats, error) {
	return core.ApplyDelta(cube, db, batch)
}
