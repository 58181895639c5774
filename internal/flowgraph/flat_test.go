package flowgraph_test

import (
	"reflect"
	"testing"

	"flowcube/internal/flowgraph"
	"flowcube/internal/hierarchy"
	"flowcube/internal/paperex"
	"flowcube/internal/pathdb"
)

// flattenFixture builds the full Table-1 graph with mined exceptions and
// returns it alongside its columnar form.
func flattenFixture(t *testing.T) (*paperex.Example, *flowgraph.Graph, *flowgraph.Flat) {
	t.Helper()
	ex := paperex.New()
	paths := basePaths(ex)
	g := flowgraph.Build(ex.Location, ex.BasePathLevel(), paths, nil)
	g = mineSingleStage(g, paths, 0.1, 2)
	if len(g.Exceptions()) == 0 {
		t.Fatal("fixture mined no exceptions")
	}
	return ex, g, g.Columns()
}

func TestFlattenUnflattenRoundTrip(t *testing.T) {
	ex, g, f := flattenFixture(t)
	g2, err := flowgraph.Unflatten(ex.Location, ex.BasePathLevel(), f)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Paths() != g.Paths() {
		t.Errorf("paths: %d vs %d", g2.Paths(), g.Paths())
	}
	if d := flowgraph.Divergence(g, g2) + flowgraph.Divergence(g2, g); d > 1e-12 {
		t.Errorf("round-tripped graph diverges by %g", d)
	}
	ox, lx := g.Exceptions(), g2.Exceptions()
	if len(ox) != len(lx) {
		t.Fatalf("exceptions: %d vs %d", len(lx), len(ox))
	}
	for i := range ox {
		if ox[i].Support != lx[i].Support ||
			len(ox[i].Condition) != len(lx[i].Condition) ||
			ox[i].Node.Depth != lx[i].Node.Depth ||
			ox[i].Node.Location != lx[i].Node.Location {
			t.Errorf("exception %d mismatch after round trip", i)
		}
	}
	// The reconstruction's columns are the ones it was given.
	if f2 := g2.Columns(); !reflect.DeepEqual(f, f2) {
		t.Error("the unflattened graph's columns differ from the ones it was given")
	}
}

func TestFlattenUnflattenNoExceptions(t *testing.T) {
	ex := paperex.New()
	g := flowgraph.Build(ex.Location, ex.BasePathLevel(), basePaths(ex), nil)
	// An exception-free table is empty, sentinels included, as the
	// snapshot decoder leaves it.
	f := g.Columns()
	if len(f.ExcNode) != 0 || len(f.ExcPinLo) != 0 || len(f.ExcDurLo) != 0 {
		t.Fatalf("unexpected exception columns: %d nodes, %d/%d sentinels",
			len(f.ExcNode), len(f.ExcPinLo), len(f.ExcDurLo))
	}
	g2, err := flowgraph.Unflatten(ex.Location, ex.BasePathLevel(), f)
	if err != nil {
		t.Fatal(err)
	}
	if d := flowgraph.Divergence(g, g2) + flowgraph.Divergence(g2, g); d > 1e-12 {
		t.Errorf("round-tripped graph diverges by %g", d)
	}
}

// TestUnflattenRejectsInvalid feeds Unflatten structurally corrupt columns
// and expects an error for each, from Unflatten and from Check alone — this
// is the validation layer the snapshot decoder and the verify walk lean on
// after the decoder's own bounds checks pass.
func TestUnflattenRejectsInvalid(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(f *flowgraph.Flat)
	}{
		{"child range before self", func(f *flowgraph.Flat) { f.ChildLo[1] = 0 }},
		{"child range decreasing", func(f *flowgraph.Flat) {
			f.ChildLo[2] = f.ChildLo[1] - 1
		}},
		{"last child range open", func(f *flowgraph.Flat) {
			f.ChildLo[len(f.ChildLo)-1]--
		}},
		{"negative count", func(f *flowgraph.Flat) { f.Counts[1] = -1 }},
		{"duration offsets cross", func(f *flowgraph.Flat) { f.DurLo[1] = f.DurLo[2] + 1 }},
		{"outcomes not increasing", func(f *flowgraph.Flat) {
			// Node 1 (the factory) has two duration outcomes; make them equal.
			f.Outcomes[f.DurLo[1]+1] = f.Outcomes[f.DurLo[1]]
		}},
		{"exception node out of range", func(f *flowgraph.Flat) {
			f.ExcNode[0] = int32(f.NumNodes())
		}},
		{"exception pins unsorted", func(f *flowgraph.Flat) {
			f.ExcPinLo[1] = f.ExcPinLo[0] - 1
		}},
		{"location out of hierarchy", func(f *flowgraph.Flat) { f.Locations[1] = 1 << 20 }},
		{"pin location out of hierarchy", func(f *flowgraph.Flat) { f.PinLoc[0] = 1 << 30 }},
		{"pin location negative", func(f *flowgraph.Flat) { f.PinLoc[0] = -1 }},
		{"pin depth below 1", func(f *flowgraph.Flat) { f.PinDepth[0] = -7 }},
		{"pin depth 0, the root's", func(f *flowgraph.Flat) { f.PinDepth[0] = 0 }},
		{"truncated columns", func(f *flowgraph.Flat) { f.Counts = f.Counts[:1] }},
		{"sibling locations duplicated", func(f *flowgraph.Flat) {
			for i := range f.Locations {
				if lo := f.ChildLo[i]; f.ChildLo[i+1]-lo >= 2 {
					f.Locations[lo+1] = f.Locations[lo]
					return
				}
			}
		}},
		{"negative weight", func(f *flowgraph.Flat) { f.Weights[len(f.Weights)-1] = -1 }},
		{"exception outcomes not increasing", func(f *flowgraph.Flat) {
			for j := range f.ExcNode {
				if lo := f.ExcDurLo[j]; f.ExcTrLo[j]-lo >= 2 {
					f.ExcOutcomes[lo+1] = f.ExcOutcomes[lo]
					return
				}
			}
		}},
		// A node's transition distribution is read off the counts, so they
		// must add up: the root's children to Paths, a node's children to
		// at most its count, and every child reached by some path.
		{"paths not the root's children", func(f *flowgraph.Flat) { f.Paths++ }},
		{"count below the children's", func(f *flowgraph.Flat) {
			if i := nodeWhere(f, func(_ int, children, ends int64) bool { return children > 0 && ends == 0 }); i > 0 {
				f.Counts[i]--
			}
		}},
		{"negative terminations the counts balance", func(f *flowgraph.Flat) {
			// A first stage whose paths all go on: one path less reaches
			// it, and -1 end there.
			if i := nodeWhere(f, func(i int, children, ends int64) bool {
				return i < int(f.ChildLo[1]) && children > 0 && ends == 0
			}); i > 0 {
				f.Paths--
				f.Counts[i]--
			}
		}},
		{"zero-weight child of a one-path graph", func(f *flowgraph.Flat) {
			*f = *onePath(0)
		}},
		// Every visit to a node has a duration: its weights sum to its count.
		{"durations above the count", func(f *flowgraph.Flat) { f.Weights[f.DurLo[1]]++ }},
		{"durations below the count", func(f *flowgraph.Flat) { f.Weights[f.DurLo[1]]-- }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ex, _, f := flattenFixture(t)
			if err := f.Check(ex.Location); err != nil {
				t.Fatalf("intact fixture fails Check: %v", err)
			}
			tc.corrupt(f)
			if _, err := flowgraph.Unflatten(ex.Location, ex.BasePathLevel(), f); err == nil {
				t.Error("corrupt flat graph accepted")
			}
			// Check is the validator Unflatten runs: it alone rejects too.
			if err := f.Check(ex.Location); err == nil {
				t.Error("Check accepts the corrupt flat graph")
			}
		})
	}

	// The one-path graph the zero-weight case empties loads intact.
	ex := paperex.New()
	if _, err := flowgraph.Unflatten(ex.Location, pathdb.PathLevel{}, onePath(1)); err != nil {
		t.Fatalf("the one-path graph does not load: %v", err)
	}
}

// nodeWhere returns the first non-root node of f that keep accepts, or 0,
// the root, when none does: a case that finds no node corrupts nothing, and
// fails as a corrupt graph Check accepts.
func nodeWhere(f *flowgraph.Flat, keep func(i int, children, ends int64) bool) int {
	for i := 1; i < f.NumNodes(); i++ {
		ends := f.Counts[i]
		for j := f.ChildLo[i]; j < f.ChildLo[i+1]; j++ {
			ends -= f.Counts[j]
		}
		if keep(i, int64(f.ChildLo[i+1]-f.ChildLo[i]), ends) {
			return i
		}
	}
	return 0
}

// onePath is a graph of paths paths that reach the Table-1 stage f and stop
// there, each after 5 time units: with 0 the stage is a child no path
// reaches, a zero weight in the root's transition distribution.
func onePath(paths int64) *flowgraph.Flat {
	f := int32(paperex.New().Location.MustLookup("f"))
	return &flowgraph.Flat{
		Paths:     paths,
		Locations: []int32{int32(hierarchy.Root), f},
		Counts:    []int64{0, paths},
		ChildLo:   []int32{1, 2, 2},
		DurLo:     []int32{0, 0, 1},
		Outcomes:  []int64{5},
		Weights:   []int64{paths},
	}
}
