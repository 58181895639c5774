package mining_test

import (
	"testing"

	"flowcube/internal/hierarchy"
	"flowcube/internal/itemset"
	"flowcube/internal/mining"
	"flowcube/internal/oracle"
	"flowcube/internal/paperex"
	"flowcube/internal/transact"
)

func seq(ex *paperex.Example, names ...string) []hierarchy.NodeID {
	out := make([]hierarchy.NodeID, len(names))
	for i, n := range names {
		out[i] = ex.Location.MustLookup(n)
	}
	return out
}

// supports holds the hand-computed ground truth for the Table-1 running
// example. (The paper's Table 4 lists a few counts — e.g. {121}:5 — that
// contradict its own Table 1, where tennis appears in 4 paths; we assert
// the counts recomputed by hand, see EXPERIMENTS.md.)
func groundTruth(t *testing.T, ex *paperex.Example, syms *transact.Symbols) map[string]struct {
	set   []transact.Item
	count int64
} {
	t.Helper()
	dim := func(d int, h *hierarchy.Hierarchy, name string) transact.Item {
		it, ok := syms.LookupDimValue(d, h.MustLookup(name))
		if !ok {
			t.Fatalf("dim value %q not interned", name)
		}
		return it
	}
	stage := func(level int, dur int64, any bool, names ...string) transact.Item {
		it, ok := syms.LookupStage(level, seq(ex, names...), dur, any)
		if !ok {
			t.Fatalf("stage %v not interned", names)
		}
		return it
	}
	sortSet := func(items ...transact.Item) []transact.Item {
		for i := 1; i < len(items); i++ {
			for j := i; j > 0 && items[j] < items[j-1]; j-- {
				items[j], items[j-1] = items[j-1], items[j]
			}
		}
		return items
	}
	return map[string]struct {
		set   []transact.Item
		count int64
	}{
		"{tennis}":        {sortSet(dim(0, ex.Product, "tennis")), 4},
		"{shoes}":         {sortSet(dim(0, ex.Product, "shoes")), 5},
		"{(f,10)}":        {sortSet(stage(0, 10, false, "f")), 5},
		"{(f,*)}":         {sortSet(stage(1, 0, true, "f")), 8},
		"{(fd,2)}":        {sortSet(stage(0, 2, false, "f", "d")), 4},
		"{shoes,nike}":    {sortSet(dim(0, ex.Product, "shoes"), dim(1, ex.Brand, "nike")), 3},
		"{nike,(f,10)}":   {sortSet(dim(1, ex.Brand, "nike"), stage(0, 10, false, "f")), 5},
		"{(f,5),(fd,2)}":  {sortSet(stage(0, 5, false, "f"), stage(0, 2, false, "f", "d")), 3},
		"{(f,*),(fd,*)}":  {sortSet(stage(1, 0, true, "f"), stage(1, 0, true, "f", "d")), 5},
		"{tennis,(fd,2)}": {sortSet(dim(0, ex.Product, "tennis"), stage(0, 2, false, "f", "d")), 4},
	}
}

func TestSharedRunningExampleCounts(t *testing.T) {
	ex := paperex.New()
	syms := transact.MustNewSymbols(ex.Schema, oracle.Leaf(ex))
	txs := syms.Encode(ex.DB)
	res, err := mining.Mine(syms, txs, mining.Options{MinCount: 3, PruneAncestor: true, PruneLink: true, Precount: true})
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range groundTruth(t, ex, syms) {
		got, ok := res.Support(want.set)
		if !ok {
			t.Errorf("%s not found frequent (want count %d)", name, want.count)
			continue
		}
		if got != want.count {
			t.Errorf("%s support = %d, want %d", name, got, want.count)
		}
	}
}

func TestBasicMatchesSharedOnSharedOutput(t *testing.T) {
	ex := paperex.New()
	syms := transact.MustNewSymbols(ex.Schema, oracle.Cuts(ex))
	txs := syms.Encode(ex.DB)

	shared, err := mining.Mine(syms, txs, mining.SharedOptions(0.3))
	if err != nil {
		t.Fatal(err)
	}
	basic, err := mining.Mine(syms, txs, mining.BasicOptions(0.3))
	if err != nil {
		t.Fatal(err)
	}

	// Every Shared itemset must be found by Basic with the same count:
	// Shared's pruning is lossless for the sets it keeps.
	for _, c := range shared.All() {
		got, ok := basic.Support(c.Set)
		if !ok {
			t.Fatalf("basic misses shared itemset %s", syms.SetString(c.Set))
		}
		if got != c.Count {
			t.Errorf("count mismatch for %s: basic %d, shared %d", syms.SetString(c.Set), got, c.Count)
		}
	}

	// Conversely, every Basic itemset Shared skipped must contain an
	// item+ancestor pair — Shared's only lossy-looking prune is provably
	// redundant sets.
	for _, c := range basic.All() {
		if _, ok := shared.Support(c.Set); ok {
			continue
		}
		if !syms.HasAncestorPair(c.Set) {
			t.Errorf("shared dropped %s (count %d) which is not an ancestor-pair set",
				syms.SetString(c.Set), c.Count)
		}
	}
}

func TestSharedPruningReducesCandidates(t *testing.T) {
	ex := paperex.New()
	syms := transact.MustNewSymbols(ex.Schema, oracle.Cuts(ex))
	txs := syms.Encode(ex.DB)

	shared, err := mining.Mine(syms, txs, mining.SharedOptions(0.25))
	if err != nil {
		t.Fatal(err)
	}
	basic, err := mining.Mine(syms, txs, mining.BasicOptions(0.25))
	if err != nil {
		t.Fatal(err)
	}
	sharedTotal, basicTotal := 0, 0
	for _, l := range shared.Levels {
		sharedTotal += l.Counted
	}
	for _, l := range basic.Levels {
		basicTotal += l.Counted
	}
	if sharedTotal >= basicTotal {
		t.Errorf("shared counted %d candidates, basic %d; shared should count fewer", sharedTotal, basicTotal)
	}
	if shared.MaxLen() > basic.MaxLen() {
		t.Errorf("shared max pattern length %d exceeds basic %d", shared.MaxLen(), basic.MaxLen())
	}
}

func TestPrecountIsLossless(t *testing.T) {
	ex := paperex.New()
	syms := transact.MustNewSymbols(ex.Schema, oracle.Cuts(ex))
	txs := syms.Encode(ex.DB)

	with, err := mining.Mine(syms, txs, mining.Options{MinCount: 2, PruneAncestor: true, PruneLink: true, Precount: true})
	if err != nil {
		t.Fatal(err)
	}
	without, err := mining.Mine(syms, txs, mining.Options{MinCount: 2, PruneAncestor: true, PruneLink: true})
	if err != nil {
		t.Fatal(err)
	}
	a, b := with.All(), without.All()
	if len(a) != len(b) {
		t.Fatalf("precount changed result size: %d vs %d", len(a), len(b))
	}
	bySet := make(map[string]int64, len(b))
	for _, c := range b {
		bySet[itemset.Key(c.Set)] = c.Count
	}
	for _, c := range a {
		if bySet[itemset.Key(c.Set)] != c.Count {
			t.Errorf("precount changed support of %s", syms.SetString(c.Set))
		}
	}
}

func TestLinkPruneIsLossless(t *testing.T) {
	ex := paperex.New()
	syms := transact.MustNewSymbols(ex.Schema, oracle.Cuts(ex))
	txs := syms.Encode(ex.DB)

	with, err := mining.Mine(syms, txs, mining.Options{MinCount: 3, PruneLink: true})
	if err != nil {
		t.Fatal(err)
	}
	without, err := mining.Mine(syms, txs, mining.Options{MinCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(with.All()) != len(without.All()) {
		t.Fatalf("linkability pruning changed result size: %d vs %d — it removed a satisfiable candidate",
			len(with.All()), len(without.All()))
	}
}

func TestMinSupportValidation(t *testing.T) {
	ex := paperex.New()
	syms := transact.MustNewSymbols(ex.Schema, oracle.Leaf(ex))
	txs := syms.Encode(ex.DB)
	for _, bad := range []float64{0, -0.5, 1.5} {
		if _, err := mining.Mine(syms, txs, mining.Options{MinSupport: bad}); err == nil {
			t.Errorf("MinSupport=%g accepted, want error", bad)
		}
	}
}

func TestCandidateLimitAborts(t *testing.T) {
	ex := paperex.New()
	syms := transact.MustNewSymbols(ex.Schema, oracle.Cuts(ex))
	txs := syms.Encode(ex.DB)
	opts := mining.BasicOptions(0.2)
	opts.CandidateLimit = 1
	res, err := mining.Mine(syms, txs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Aborted {
		t.Errorf("CandidateLimit=1 did not abort")
	}
}

func TestSupportMonotonicity(t *testing.T) {
	ex := paperex.New()
	syms := transact.MustNewSymbols(ex.Schema, oracle.Cuts(ex))
	txs := syms.Encode(ex.DB)
	res, err := mining.Mine(syms, txs, mining.SharedOptions(0.25))
	if err != nil {
		t.Fatal(err)
	}
	// Apriori invariant: every subset of a frequent itemset obtained by
	// dropping one item is at least as frequent — unless Shared pruned the
	// subset as an ancestor-pair set (it cannot be, dropping keeps
	// validity) — so the subset must be present with count >= superset's.
	for _, c := range res.All() {
		if len(c.Set) > 1 {
			sub := make([]transact.Item, 0, len(c.Set)-1)
			for drop := range c.Set {
				sub = sub[:0]
				sub = append(sub, c.Set[:drop]...)
				sub = append(sub, c.Set[drop+1:]...)
				n, ok := res.Support(sub)
				if !ok {
					t.Fatalf("subset %s of frequent %s missing", syms.SetString(sub), syms.SetString(c.Set))
				}
				if n < c.Count {
					t.Errorf("subset %s support %d < superset %s support %d",
						syms.SetString(sub), n, syms.SetString(c.Set), c.Count)
				}
			}
		}
	}
}

// TestParallelMatchesSequential: worker-sharded counting must produce
// byte-identical results to the sequential run.
func TestParallelMatchesSequential(t *testing.T) {
	ex := paperex.New()
	syms := transact.MustNewSymbols(ex.Schema, oracle.Cuts(ex))
	txs := syms.Encode(ex.DB)

	seq, err := mining.Mine(syms, txs, mining.SharedOptions(0.25))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 7} {
		opts := mining.SharedOptions(0.25)
		opts.Workers = workers
		par, err := mining.Mine(syms, txs, opts)
		if err != nil {
			t.Fatal(err)
		}
		a, b := seq.All(), par.All()
		if len(a) != len(b) {
			t.Fatalf("workers=%d: %d itemsets vs %d sequential", workers, len(b), len(a))
		}
		for _, c := range a {
			n, ok := par.Support(c.Set)
			if !ok || n != c.Count {
				t.Fatalf("workers=%d: support of %s = %d/%v, sequential %d",
					workers, syms.SetString(c.Set), n, ok, c.Count)
			}
		}
	}
}
