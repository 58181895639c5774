//go:build !race

package core_test

import (
	"testing"

	"flowcube/internal/core"
)

// TestLookupAllocatesNothing: a point read names its cuboid and cell with
// keys built on the stack, so Lookup of an in-memory cell, and of a lazily
// opened cell already resident in the cache, touches no heap. The race
// detector's instrumentation changes what allocates, so it is left out.
func TestLookupAllocatesNothing(t *testing.T) {
	eager, lazy := lazyFixture(t, core.LazyOptions{CacheBytes: -1})
	for name, cube := range map[string]*core.Cube{"in memory": eager, "lazy, resident": lazy} {
		for _, spec := range eager.MaterializedSpecs() {
			for _, cell := range eager.Cuboid(spec).SortedCells() {
				if got, _ := cube.Lookup(spec, cell.Values); got == nil {
					t.Fatalf("%s: cell %v of %s absent", name, cell.Values, spec.Key())
				}
				if n := testing.AllocsPerRun(20, func() { lookupSink, _ = cube.Lookup(spec, cell.Values) }); n != 0 {
					t.Fatalf("%s: Lookup of cell %v of %s allocates %v times", name, cell.Values, spec.Key(), n)
				}
			}
		}
	}
}
