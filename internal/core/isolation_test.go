package core_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/oracle"
	"flowcube/internal/pathdb"
)

// TestGenerationIsolation is the sharing test: a chain of fork →
// ApplyDelta → publish steps, at random batch sizes, while readers keep
// rendering every generation published so far. A generation is frozen the
// moment the next is forked from it, so afterwards every earlier
// generation must save the bytes it saved when it was published, and the
// last must equal a full Build over the union. Each commit must also copy
// no more cells than it writes.
//
// A sharing bug is a rare interleaving rather than a deterministic failure:
// scripts/check.sh runs this test with -race -count=10.
func TestGenerationIsolation(t *testing.T) {
	variants := []struct {
		name string
		cfg  core.Config
		// reload starts the chain from a saved-and-loaded cube: no sub-δ
		// ledger and a cold condition cache, so the first append derives the
		// ledger and the first touch of a cell re-mines it in full.
		reload bool
		// lazy starts the chain from a LoadCubeLazy of the saved build: every
		// cell a step writes is copied out of the mapping, and no other.
		lazy bool
		// abandon folds a different batch into a fork that is then dropped,
		// before every real step.
		abandon bool
	}{
		{name: "plain+ledger", cfg: core.Config{MinCount: 4}},
		{name: "exceptions-restricted", cfg: core.Config{MinCount: 4, Epsilon: 0.05,
			MineExceptions: true}},
		{name: "exceptions-cold", reload: true, cfg: core.Config{MinCount: 4, Epsilon: 0.05,
			MineExceptions: true}},
		{name: "tau", cfg: core.Config{MinCount: 4, Tau: 0.5}},
		{name: "ledgerless", cfg: core.Config{MinCount: 5}},
		{name: "plain+ledger+lazy", lazy: true, cfg: core.Config{MinCount: 4}},
		{name: "abandoned", abandon: true, cfg: core.Config{MinCount: 4, Epsilon: 0.05,
			MineExceptions: true}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			const base, steps, maxBatch = 60, 20, 4
			ds := oracle.Dataset(31, base+2*steps*maxBatch)
			cfg := v.cfg
			cfg.Plan = ds.DefaultPlan()
			// Two of the four path levels keep a -race -count=10 run short.
			cfg.Plan.PathLevels = []pathdb.PathLevel{cfg.Plan.PathLevels[0], cfg.Plan.PathLevels[3]}
			cfg.Workers = 2
			db := oracle.Prefix(ds.DB, base)
			gen0 := oracle.Build(t, db, cfg)
			if v.reload || v.lazy {
				gen0 = oracle.Reopen(t, gen0, v.lazy)
			}

			// published is what a serving layer's snapshot holder is: the
			// atomic store is the only edge between the writer and readers.
			var published atomic.Pointer[[]*core.Cube]
			gens := []*core.Cube{gen0}
			snaps := [][]byte{oracle.Save(t, gen0)}
			first := gens // readers must not hold a pointer to gens itself: the loop below reassigns it
			published.Store(&first)

			stop := make(chan struct{})
			var readers sync.WaitGroup
			for r := 0; r < 2; r++ {
				readers.Add(1)
				go func(seed int64) {
					defer readers.Done()
					rng := rand.New(rand.NewSource(seed))
					for {
						select {
						case <-stop:
							return
						default:
						}
						all := *published.Load()
						if i := rng.Intn(len(all)); !renderCube(all[i]) {
							t.Errorf("generation %d: an exception names a node outside its generation", i)
							return
						}
					}
				}(int64(r))
			}

			rng := rand.New(rand.NewSource(5))
			next := base
			take := func() []pathdb.Record {
				n := 1 + rng.Intn(maxBatch)
				batch := ds.DB.Records[next : next+n]
				next += n
				return batch
			}
			for step := 0; step < steps; step++ {
				cur := gens[len(gens)-1]
				if v.abandon {
					// The dropped fold sees the same store reservation a
					// server would hand it: appends must not reach db.
					scratch := &pathdb.DB{Schema: db.Schema, Records: db.Records[:len(db.Records):len(db.Records)]}
					if _, err := core.ApplyDelta(cur.Fork(), scratch, take()); err != nil {
						t.Fatalf("step %d: abandoned fold: %v", step, err)
					}
				}
				fork := cur.Fork()
				stats, err := core.ApplyDelta(fork, db, take())
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				// Re-marking redundancy writes the touched cells' lattice
				// children too; with τ = 0 the bound is touched + admitted.
				if limit := stats.CellsTouched + stats.CellsAdmitted + stats.RedundancyRemarked; stats.CellsCopied > limit {
					t.Errorf("step %d: copied %d cells, wrote at most %d", step, stats.CellsCopied, limit)
				}
				if stats.CellsTouched > 0 && stats.CellsCopied == 0 {
					t.Errorf("step %d: touched %d cells of a fresh fork and copied none", step, stats.CellsTouched)
				}
				grown := append(gens[:len(gens):len(gens)], fork)
				snaps = append(snaps, oracle.Save(t, fork))
				gens = grown
				published.Store(&grown)
			}
			close(stop)
			readers.Wait()

			for i, g := range gens {
				if d := oracle.Diff(snaps[i], oracle.Save(t, g)); d != "" {
					t.Errorf("generation %d saved different bytes after %d later commits: %s", i, len(gens)-1-i, d)
				}
				if err := g.Validate(); err != nil {
					t.Errorf("generation %d: %v", i, err)
				}
			}
			// db is the union the real steps folded; with an abandoned fold
			// before every step it skips the batches those folds took.
			oracle.Check(t, "last generation", gens[len(gens)-1], db, cfg)
		})
	}
}

// renderCube reads what a query would: every cell's flowgraph columns, and
// through each exception of a thaw of them its prefix and its node's
// general distributions. It reports whether every exception resolved inside
// its own graph.
func renderCube(c *core.Cube) bool {
	for _, spec := range c.MaterializedSpecs() {
		for _, cell := range c.Cuboid(spec).SortedCells() {
			if cell.Graph == nil {
				continue
			}
			g := cell.Graph
			for _, x := range g.Exceptions() {
				n := g.NodeAt(x.Prefix)
				if n == nil || n.Location != x.Node.Location || n.Depth != x.Node.Depth || n.Count != x.Node.Count ||
					n.Durations.String() != x.Node.Durations.String() || n.Durations.Total() != n.Count {
					return false
				}
			}
		}
	}
	return true
}
