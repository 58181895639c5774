package cubing_test

import (
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/cubing"
	"flowcube/internal/datagen"
	"flowcube/internal/hierarchy"
	"flowcube/internal/itemset"
	"flowcube/internal/mining"
	"flowcube/internal/paperex"
	"flowcube/internal/pathdb"
	"flowcube/internal/transact"
)

func examplePlan(ex *paperex.Example) transact.Plan {
	leaf := hierarchy.LevelCut(ex.Location, ex.Location.Depth())
	up := hierarchy.LevelCut(ex.Location, 1)
	return transact.Plan{
		PathLevels: []pathdb.PathLevel{
			{Cut: leaf, Time: pathdb.TimeBase},
			{Cut: leaf, Time: pathdb.TimeAny},
			{Cut: up, Time: pathdb.TimeBase},
			{Cut: up, Time: pathdb.TimeAny},
		},
	}
}

func TestCubingRunningExampleCells(t *testing.T) {
	ex := paperex.New()
	syms := transact.MustNewSymbols(ex.Schema, examplePlan(ex))
	syms.Encode(ex.DB)

	res, err := cubing.Run(ex.DB, syms, mining.Options{MinCount: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Table 2's aggregated cells at (product level 2, brand level 2):
	// (shoes,nike)=3, (shoes,adidas)=2, (outerwear,nike)=3.
	cases := []struct {
		product, brand string
		want           int64
	}{
		{"shoes", "nike", 3},
		{"shoes", "adidas", 2},
		{"outerwear", "nike", 3},
	}
	for _, c := range cases {
		values := []hierarchy.NodeID{ex.Product.MustLookup(c.product), ex.Brand.MustLookup(c.brand)}
		cell, ok := res.Cells[core.MakeCellID(values)]
		if !ok {
			t.Errorf("cell (%s,%s) missing", c.product, c.brand)
			continue
		}
		if cell.Count != c.want {
			t.Errorf("cell (%s,%s) count = %d, want %d", c.product, c.brand, cell.Count, c.want)
		}
	}
	// The iceberg condition: (shirt, nike) holds a single path (< δ=2) and
	// must not be materialized. (The paper's own example: "if we set the
	// minimum support to 2, the cell (shirt, *) will not be materialized".)
	shirtNike := []hierarchy.NodeID{ex.Product.MustLookup("shirt"), ex.Brand.MustLookup("nike")}
	if _, ok := res.Cells[core.MakeCellID(shirtNike)]; ok {
		t.Errorf("iceberg condition violated: (shirt,nike) with 1 path materialized at δ=2")
	}
	shirtStar := []hierarchy.NodeID{ex.Product.MustLookup("shirt"), hierarchy.Root}
	if _, ok := res.Cells[core.MakeCellID(shirtStar)]; ok {
		t.Errorf("iceberg condition violated: (shirt,*) with 1 path materialized at δ=2")
	}

	// The apex cell holds all 8 paths.
	apex := []hierarchy.NodeID{hierarchy.Root, hierarchy.Root}
	cell, ok := res.Cells[core.MakeCellID(apex)]
	if !ok || cell.Count != 8 {
		t.Fatalf("apex cell missing or wrong count")
	}
}

// TestCubingMatchesShared cross-validates the two §5 algorithms on a small
// synthetic workload: they must discover exactly the same frequent cells
// with the same counts, and the same frequent path segments per cell.
func TestCubingMatchesShared(t *testing.T) {
	cfg := datagen.Default()
	cfg.NumPaths = 300
	cfg.NumDims = 2
	cfg.NumSequences = 12
	cfg.SeqLenMin, cfg.SeqLenMax = 3, 4
	cfg.DurationDomain = 3
	ds := datagen.MustGenerate(cfg)

	syms := transact.MustNewSymbols(ds.Schema, ds.DefaultPlan())
	txs := syms.Encode(ds.DB)
	shared, err := mining.Mine(syms, txs, mining.SharedOptions(0.15))
	if err != nil {
		t.Fatal(err)
	}
	cub, err := cubing.Run(ds.DB, syms, mining.Options{MinSupport: 0.15})
	if err != nil {
		t.Fatal(err)
	}

	// Index the shared result: cell part (dimension values) + stage part.
	type cellSeg struct {
		cell core.CellID
		seg  string
	}
	sharedSets := make(map[cellSeg]int64)
	for _, c := range flatten(shared.ByLength) {
		values := make([]hierarchy.NodeID, len(ds.Schema.Dims))
		for i := range values {
			values[i] = hierarchy.Root
		}
		var stages []transact.Item
		skip := false
		for _, it := range c.Set {
			if syms.IsStage(it) {
				stages = append(stages, it)
				continue
			}
			d := syms.Dim(it)
			if values[d] != hierarchy.Root {
				skip = true // two levels of one dimension (not a cell)
				break
			}
			values[d] = syms.Node(it)
		}
		if skip {
			continue
		}
		sharedSets[cellSeg{core.MakeCellID(values), itemset.Key(stages)}] = c.Count
	}

	// Every cubing cell must match shared's pure-dimension itemset count
	// (the apex cell has no shared counterpart and is checked directly),
	// and every per-cell segment must match the mixed itemset count.
	checked := 0
	for key, cell := range cub.Cells {
		allStar := true
		for _, v := range cell.Values {
			if v != hierarchy.Root {
				allStar = false
			}
		}
		if allStar {
			if cell.Count != int64(ds.DB.Len()) {
				t.Errorf("apex count = %d, want %d", cell.Count, ds.DB.Len())
			}
		} else {
			n, ok := sharedSets[cellSeg{key, ""}]
			if !ok {
				t.Errorf("cell %v found by cubing but not shared", cell.Values)
				continue
			}
			if n != cell.Count {
				t.Errorf("cell %v count mismatch: cubing %d, shared %d", cell.Values, cell.Count, n)
			}
		}
		for _, seg := range flatten(cell.Segments) {
			want, ok := sharedSets[cellSeg{key, itemset.Key(seg.Set)}]
			if !ok {
				// Shared prunes segments containing an item+ancestor pair
				// (they are derivable); cubing's vanilla Apriori keeps them.
				if syms.HasAncestorPair(seg.Set) {
					continue
				}
				t.Errorf("segment %s of cell %v missing from shared", syms.SetString(seg.Set), cell.Values)
				continue
			}
			if want != seg.Count {
				t.Errorf("segment %s of cell %v: cubing %d, shared %d",
					syms.SetString(seg.Set), cell.Values, seg.Count, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatalf("cross-validation checked no segments; workload too sparse")
	}

	// And the reverse: every shared itemset that denotes a cell+segment
	// must appear in the cubing output.
	for cs, n := range sharedSets {
		if cs.seg == "" {
			cell, ok := cub.Cells[cs.cell]
			if !ok {
				t.Errorf("shared cell %x missing from cubing", cs.cell)
				continue
			}
			if cell.Count != n {
				t.Errorf("shared cell %v count %d != cubing %d", cell.Values, n, cell.Count)
			}
			continue
		}
		cell, ok := cub.Cells[cs.cell]
		if !ok {
			t.Errorf("cell %x of shared segment missing from cubing", cs.cell)
			continue
		}
		found := false
		for _, seg := range flatten(cell.Segments) {
			if itemset.Key(seg.Set) == cs.seg {
				found = true
				if seg.Count != n {
					t.Errorf("segment count mismatch in cell %v: shared %d, cubing %d", cell.Values, n, seg.Count)
				}
				break
			}
		}
		if !found {
			t.Errorf("shared segment missing from cubing cell %v", cell.Values)
		}
	}
}

// counted is one mined itemset with its support.
type counted struct {
	Set   []transact.Item
	Count int64
}

// flatten lists the itemsets of every level.
func flatten(levels []itemset.Level) []counted {
	var out []counted
	for _, l := range levels {
		for i, n := range l.Counts {
			out = append(out, counted{l.Set(i), n})
		}
	}
	return out
}

func TestCubingTIDBytesAccounting(t *testing.T) {
	ex := paperex.New()
	syms := transact.MustNewSymbols(ex.Schema, examplePlan(ex))
	syms.Encode(ex.DB)
	res, err := cubing.Run(ex.DB, syms, mining.Options{MinCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, c := range res.Cells {
		want += 4 * c.Count
	}
	if res.TIDBytes != want {
		t.Errorf("TIDBytes = %d, want %d", res.TIDBytes, want)
	}
	if res.TIDBytes <= int64(4*ex.DB.Len()) {
		t.Errorf("TID lists should exceed the base table size (the §5.2 I/O point)")
	}
}
