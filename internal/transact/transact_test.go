package transact_test

import (
	"fmt"
	"strings"
	"testing"

	"flowcube/internal/hierarchy"
	"flowcube/internal/oracle"
	"flowcube/internal/paperex"
	"flowcube/internal/pathdb"
	"flowcube/internal/transact"
)

func seq(ex *paperex.Example, names ...string) []hierarchy.NodeID {
	out := make([]hierarchy.NodeID, len(names))
	for i, n := range names {
		out[i] = ex.Location.MustLookup(n)
	}
	return out
}

func TestEncodeRecordTable3(t *testing.T) {
	ex := paperex.New()
	syms := transact.MustNewSymbols(ex.Schema, oracle.Leaf(ex))
	txs := syms.Encode(ex.DB)
	if len(txs) != 8 {
		t.Fatalf("encoded %d transactions, want 8", len(txs))
	}

	// Transaction 1 (tennis, nike, (f,10)(d,2)(t,1)(s,5)(c,0)) must contain
	// the Table-3 stage items at the base level plus their '*' variants.
	tx := txs[0]
	wantStages := []struct {
		names []string
		dur   int64
		any   bool
	}{
		{[]string{"f"}, 10, false},
		{[]string{"f", "d"}, 2, false},
		{[]string{"f", "d", "t"}, 1, false},
		{[]string{"f", "d", "t", "s"}, 5, false},
		{[]string{"f", "d", "t", "s", "c"}, 0, false},
		{[]string{"f", "d", "t", "s", "c"}, 0, true},
	}
	for _, w := range wantStages {
		level := 0
		if w.any {
			level = 1
		}
		it, ok := syms.LookupStage(level, seq(ex, w.names...), w.dur, w.any)
		if !ok {
			t.Fatalf("stage %v dur=%d any=%v was never interned", w.names, w.dur, w.any)
		}
		if !contains(tx, it) {
			t.Errorf("transaction 1 lacks stage %s", syms.ItemString(it))
		}
	}

	// Dimension items at every level: product tennis (level 3), shoes (2),
	// clothing (1); brand nike (2), sports (1).
	for _, w := range []struct {
		dim  int
		name string
		h    *hierarchy.Hierarchy
	}{
		{0, "tennis", ex.Product},
		{0, "shoes", ex.Product},
		{0, "clothing", ex.Product},
		{1, "nike", ex.Brand},
		{1, "sports", ex.Brand},
	} {
		it, ok := syms.LookupDimValue(w.dim, w.h.MustLookup(w.name))
		if !ok {
			t.Fatalf("dim value %q was never interned", w.name)
		}
		if !contains(tx, it) {
			t.Errorf("transaction 1 lacks dim item %s", syms.ItemString(it))
		}
	}

	// The '*' root items are excluded by default (optimization 3).
	if _, ok := syms.LookupDimValue(0, hierarchy.Root); ok {
		t.Errorf("root '*' item interned without IncludeTop")
	}
}

func TestEncodeIncludeTop(t *testing.T) {
	ex := paperex.New()
	plan := oracle.Leaf(ex)
	plan.IncludeTop = true
	syms := transact.MustNewSymbols(ex.Schema, plan)
	txs := syms.Encode(ex.DB)
	it, ok := syms.LookupDimValue(0, hierarchy.Root)
	if !ok {
		t.Fatalf("IncludeTop did not intern the product '*' item")
	}
	for i, tx := range txs {
		if !contains(tx, it) {
			t.Errorf("transaction %d lacks the '*' product item under IncludeTop", i+1)
		}
	}
}

func TestStageAggregationSupportsHigherLevels(t *testing.T) {
	ex := paperex.New()
	syms := transact.MustNewSymbols(ex.Schema, oracle.Cuts(ex))
	txs := syms.Encode(ex.DB)

	// Path 4 (f,10)(t,1)(s,5)(c,0): at the one-level-up cut its path is
	// factory, transportation, store(5+0 merged? s and c both map to store:
	// durations 5 and 0 merge to 5).
	up := 2 // index of (up cut, TimeBase)
	fa := ex.Location.MustLookup("factory")
	tr := ex.Location.MustLookup("transportation")
	st := ex.Location.MustLookup("store")
	it, ok := syms.LookupStage(up, []hierarchy.NodeID{fa, tr, st}, 5, false)
	if !ok {
		t.Fatalf("aggregated stage (factory.transportation.store,5) missing")
	}
	if !contains(txs[3], it) {
		t.Errorf("transaction 4 lacks %s", syms.ItemString(it))
	}

	// Path 1 (f,10)(d,2)(t,1)(s,5)(c,0): d and t merge into transportation
	// with duration 3; s and c merge into store with duration 5.
	it2, ok := syms.LookupStage(up, []hierarchy.NodeID{fa, tr}, 3, false)
	if !ok {
		t.Fatalf("aggregated stage (factory.transportation,3) missing")
	}
	if !contains(txs[0], it2) {
		t.Errorf("transaction 1 lacks %s", syms.ItemString(it2))
	}
}

func TestAncestors(t *testing.T) {
	ex := paperex.New()
	syms := transact.MustNewSymbols(ex.Schema, oracle.Cuts(ex))
	syms.Encode(ex.DB)

	// tennis -> shoes -> clothing along the product dimension.
	tennis, _ := syms.LookupDimValue(0, ex.Product.MustLookup("tennis"))
	shoes, _ := syms.LookupDimValue(0, ex.Product.MustLookup("shoes"))
	clothing, _ := syms.LookupDimValue(0, ex.Product.MustLookup("clothing"))
	anc := syms.Ancestors(tennis)
	if !containsItem(anc, shoes) || !containsItem(anc, clothing) {
		t.Errorf("tennis ancestors = %v, want shoes and clothing", anc)
	}

	// (f,10) at the base level has (f,*) as a same-cut ancestor.
	f10, ok := syms.LookupStage(0, seq(ex, "f"), 10, false)
	if !ok {
		t.Fatalf("(f,10) missing")
	}
	fAny, ok := syms.LookupStage(1, seq(ex, "f"), 0, true)
	if !ok {
		t.Fatalf("(f,*) missing")
	}
	if !containsItem(syms.Ancestors(f10), fAny) {
		t.Errorf("(f,10) ancestors lack (f,*): %v", syms.Ancestors(f10))
	}

	// Cross-cut ancestry to a TimeAny level is always sound: (f.d,2) at the
	// leaf cut generalizes to (factory.transportation,*) at level 3.
	fd2, ok := syms.LookupStage(0, seq(ex, "f", "d"), 2, false)
	if !ok {
		t.Fatalf("(f.d,2) missing")
	}
	fa := ex.Location.MustLookup("factory")
	tr := ex.Location.MustLookup("transportation")
	ftAny, ok := syms.LookupStage(3, []hierarchy.NodeID{fa, tr}, 0, true)
	if !ok {
		t.Fatalf("(factory.transportation,*) missing")
	}
	if !containsItem(syms.Ancestors(fd2), ftAny) {
		t.Errorf("(f.d,2) ancestors lack (factory.transportation,*)")
	}

	// Cross-cut ancestry at a concrete time level is unsound when the
	// image's last concept covers several leaves (a successor could merge
	// in and change the duration): (f.d,2) must NOT claim
	// (factory.transportation,2) as an ancestor.
	if ft2, ok := syms.LookupStage(2, []hierarchy.NodeID{fa, tr}, 2, false); ok {
		if containsItem(syms.Ancestors(fd2), ft2) {
			t.Errorf("(f.d,2) wrongly claims concrete-duration cross-cut ancestor")
		}
	}
}

func TestLinkability(t *testing.T) {
	ex := paperex.New()
	syms := transact.MustNewSymbols(ex.Schema, oracle.Cuts(ex))
	syms.Encode(ex.DB)

	get := func(level int, dur int64, any bool, names ...string) transact.Item {
		t.Helper()
		it, ok := syms.LookupStage(level, seq(ex, names...), dur, any)
		if !ok {
			t.Fatalf("stage %v missing", names)
		}
		return it
	}

	fd2 := get(0, 2, false, "f", "d")
	fdt1 := get(0, 1, false, "f", "d", "t")
	// Paper's example: (fd,2) and (fts,5) can never appear in one path.
	ft1 := get(0, 1, false, "f", "t")
	if syms.Linkable(fd2, ft1) {
		t.Errorf("(f.d,2) and (f.t,1) should be unlinkable: prefixes conflict")
	}
	if !syms.Linkable(fd2, fdt1) {
		t.Errorf("(f.d,2) and (f.d.t,1) should be linkable")
	}

	// Same position, different durations: unlinkable.
	f10 := get(0, 10, false, "f")
	f5 := get(0, 5, false, "f")
	if syms.Linkable(f10, f5) {
		t.Errorf("(f,10) and (f,5) should be unlinkable")
	}

	// Same-dimension values on different branches are unlinkable.
	tennis, _ := syms.LookupDimValue(0, ex.Product.MustLookup("tennis"))
	outer, _ := syms.LookupDimValue(0, ex.Product.MustLookup("outerwear"))
	shoes, _ := syms.LookupDimValue(0, ex.Product.MustLookup("shoes"))
	if syms.Linkable(tennis, outer) {
		t.Errorf("tennis and outerwear should be unlinkable (same dimension, different branches)")
	}
	if !syms.Linkable(tennis, shoes) {
		t.Errorf("tennis and shoes should be linkable (ancestor chain)")
	}

	// Items of different dimensions are always linkable.
	nike, _ := syms.LookupDimValue(1, ex.Brand.MustLookup("nike"))
	if !syms.Linkable(tennis, nike) {
		t.Errorf("tennis and nike should be linkable")
	}
}

func TestHasAncestorPair(t *testing.T) {
	ex := paperex.New()
	syms := transact.MustNewSymbols(ex.Schema, oracle.Cuts(ex))
	syms.Encode(ex.DB)

	tennis, _ := syms.LookupDimValue(0, ex.Product.MustLookup("tennis"))
	shoes, _ := syms.LookupDimValue(0, ex.Product.MustLookup("shoes"))
	nike, _ := syms.LookupDimValue(1, ex.Brand.MustLookup("nike"))
	if !syms.HasAncestorPair([]transact.Item{tennis, shoes}) {
		t.Errorf("{tennis, shoes} is an ancestor pair")
	}
	if syms.HasAncestorPair([]transact.Item{tennis, nike}) {
		t.Errorf("{tennis, nike} is not an ancestor pair")
	}
}

func TestPrecountImage(t *testing.T) {
	ex := paperex.New()
	syms := transact.MustNewSymbols(ex.Schema, oracle.Cuts(ex))
	syms.Encode(ex.DB)

	// A top-level item's image is itself.
	clothing, _ := syms.LookupDimValue(0, ex.Product.MustLookup("clothing"))
	if img := syms.PrecountImage(clothing); img != clothing {
		t.Errorf("clothing precount image = %v, want itself", img)
	}
	// A deep dim value's image is its level-1 ancestor.
	tennis, _ := syms.LookupDimValue(0, ex.Product.MustLookup("tennis"))
	if img := syms.PrecountImage(tennis); img != clothing {
		t.Errorf("tennis precount image = %v, want clothing item %v", img, clothing)
	}
}

func contains(tx transact.Transaction, it transact.Item) bool {
	for _, x := range tx {
		if x == it {
			return true
		}
	}
	return false
}

func containsItem(set []transact.Item, it transact.Item) bool {
	for _, x := range set {
		if x == it {
			return true
		}
	}
	return false
}

func TestAccessors(t *testing.T) {
	ex := paperex.New()
	plan := oracle.Cuts(ex)
	syms := transact.MustNewSymbols(ex.Schema, plan)
	syms.Encode(ex.DB)

	if got := syms.DimLevels(); len(got) != 2 || len(got[0]) != 3 || len(got[1]) != 2 {
		t.Errorf("DimLevels = %v", got)
	}
	if syms.Len() == 0 {
		t.Errorf("no items interned")
	}

	tennis, _ := syms.LookupDimValue(0, ex.Product.MustLookup("tennis"))
	if syms.IsStage(tennis) {
		t.Errorf("tennis misclassified")
	}
	if syms.Dim(tennis) != 0 || syms.Node(tennis) != ex.Product.MustLookup("tennis") || syms.Level(tennis) != 3 {
		t.Errorf("tennis metadata wrong")
	}
	if s := syms.ItemString(tennis); s != "product=tennis" {
		t.Errorf("ItemString = %q", s)
	}

	f10, _ := syms.LookupStage(0, seq(ex, "f"), 10, false)
	if !syms.IsStage(f10) {
		t.Errorf("(f,10) misclassified")
	}
	if syms.StageLevel(f10) != 0 {
		t.Errorf("StageLevel = %d", syms.StageLevel(f10))
	}
	if got := syms.StageSeq(f10); len(got) != 1 || got[0] != ex.Location.MustLookup("f") {
		t.Errorf("StageSeq = %v", got)
	}
	if d, ok := syms.StageDuration(f10); !ok || d != 10 {
		t.Errorf("StageDuration = %d,%v", d, ok)
	}
	fAny, _ := syms.LookupStage(1, seq(ex, "f"), 0, true)
	if _, ok := syms.StageDuration(fAny); ok {
		t.Errorf("'*' duration reported as concrete")
	}
	if s := syms.ItemString(fAny); s != "(f,*)@L1" {
		t.Errorf("ItemString = %q", s)
	}
	if s := syms.SetString([]transact.Item{tennis, f10}); !strings.Contains(s, "tennis") || !strings.Contains(s, "(f,10)") {
		t.Errorf("SetString = %q", s)
	}
	if _, ok := syms.LookupDimValue(0, 9999); ok {
		t.Errorf("bogus lookup succeeded")
	}
	if _, ok := syms.LookupStage(0, seq(ex, "c", "f"), 1, false); ok {
		t.Errorf("bogus stage lookup succeeded")
	}
}

func TestNewSymbolsValidation(t *testing.T) {
	ex := paperex.New()
	if _, err := transact.NewSymbols(ex.Schema, transact.Plan{}); err == nil {
		t.Errorf("plan without path levels accepted")
	}
	plan := oracle.Cuts(ex)
	plan.DimLevels = [][]int{{1}, {1}, {1}} // more lists than dimensions
	if _, err := transact.NewSymbols(ex.Schema, plan); err == nil {
		t.Errorf("oversized DimLevels accepted")
	}
}

func TestAllLinkable(t *testing.T) {
	ex := paperex.New()
	syms := transact.MustNewSymbols(ex.Schema, oracle.Cuts(ex))
	txs := syms.Encode(ex.DB)
	// Every real transaction is fully linkable.
	if !syms.AllLinkable(txs[0]) {
		t.Errorf("a real transaction reported unlinkable")
	}
	f10, _ := syms.LookupStage(0, seq(ex, "f"), 10, false)
	f5, _ := syms.LookupStage(0, seq(ex, "f"), 5, false)
	if syms.AllLinkable([]transact.Item{f10, f5}) {
		t.Errorf("conflicting durations reported linkable")
	}
}

// TestStageKeysAreInjective interns stages a careless key encoding would
// merge — prefixes [1,23] and [12,3], one prefix and duration at two path
// levels, a prefix and its extension — and requires a distinct item for
// each, every one found again by LookupStage. A '*' duration and the
// concrete duration 42 (the byte '*') at one level must not find each
// other either.
func TestStageKeysAreInjective(t *testing.T) {
	loc := hierarchy.Generate("loc", 30) // leaves 1..30
	leaf := hierarchy.LevelCut(loc, 1)
	syms := transact.MustNewSymbols(&pathdb.Schema{Location: loc}, transact.Plan{
		PathLevels: []pathdb.PathLevel{
			{Cut: leaf, Time: pathdb.TimeBase},
			{Cut: leaf, Time: pathdb.TimeLevel{Grain: 2}},
			{Cut: leaf, Time: pathdb.TimeAny},
		},
	})
	for _, p := range []pathdb.Path{
		{{Location: 1, Duration: 42}, {Location: 23, Duration: 42}},
		{{Location: 12, Duration: 42}, {Location: 3, Duration: 42}},
		{{Location: 1, Duration: 23}},
	} {
		syms.EncodeStages(p)
	}
	type stage struct {
		level  int
		seq    string
		dur    int64
		durAny bool
	}
	seen := map[stage]transact.Item{}
	for it := transact.Item(0); int(it) < syms.Len(); it++ {
		dur, ok := syms.StageDuration(it)
		st := stage{syms.StageLevel(it), fmt.Sprint(syms.StageSeq(it)), dur, !ok}
		if prev, dup := seen[st]; dup {
			t.Fatalf("stage %+v interned twice, as items %d and %d", st, prev, it)
		}
		seen[st] = it
		if got, found := syms.LookupStage(st.level, syms.StageSeq(it), dur, !ok); !found || got != it {
			t.Errorf("LookupStage(%+v) = %d, %t; want item %d", st, got, found, it)
		}
	}
	lookup := func(level int, dur int64, durAny bool, seq ...hierarchy.NodeID) transact.Item {
		t.Helper()
		it, ok := syms.LookupStage(level, seq, dur, durAny)
		if !ok {
			t.Fatalf("stage %v at level %d, duration %d (any %t) was not interned", seq, level, dur, durAny)
		}
		return it
	}
	for _, pair := range [][2]transact.Item{
		{lookup(0, 42, false, 1, 23), lookup(0, 42, false, 12, 3)},
		{lookup(0, 42, false, 1, 23), lookup(1, 42, false, 1, 23)},
		{lookup(0, 42, false, 1), lookup(0, 42, false, 1, 23)},
		{lookup(0, 23, false, 1), lookup(0, 42, false, 1, 23)},
		{lookup(2, 0, true, 1), lookup(2, 0, true, 1, 23)},
	} {
		if pair[0] == pair[1] {
			t.Errorf("two stages share item %d (%s)", pair[0], syms.ItemString(pair[0]))
		}
	}
	if it, ok := syms.LookupStage(2, []hierarchy.NodeID{1, 23}, '*', false); ok {
		t.Errorf("duration 42 at a '*' level found item %s", syms.ItemString(it))
	}
	if it, ok := syms.LookupStage(0, []hierarchy.NodeID{1, 23}, 0, true); ok {
		t.Errorf("duration '*' at a concrete level found item %s", syms.ItemString(it))
	}
}
