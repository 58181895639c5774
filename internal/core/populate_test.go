package core_test

import (
	"testing"

	"flowcube/internal/core"
)

// TestPopulateParallelMatchesSequential: the sharded record→cell assignment
// must produce byte-identical cubes at every worker count — the same tids in
// the same order, identical flowgraphs, identical snapshots.
func TestPopulateParallelMatchesSequential(t *testing.T) {
	base := core.Config{
		MinCount:       2,
		Epsilon:        0.1,
		MineExceptions: true,
		Workers:        1,
	}
	_, seq := buildExample(t, base)
	want, wantLen := saveDigest(t, seq)
	for _, workers := range []int{2, 4, 8} {
		cfg := base
		cfg.Workers = workers
		_, cube := buildExample(t, cfg)
		got, gotLen := saveDigest(t, cube)
		if got != want {
			t.Fatalf("workers=%d: snapshot %x (%d bytes) differs from sequential %x (%d bytes)",
				workers, got, gotLen, want, wantLen)
		}
	}
}
