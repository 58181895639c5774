package flowgraph_test

import (
	"reflect"
	"slices"
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
	mineSingleStage(g, paths, 0.1, 2)
	if len(g.Exceptions()) == 0 {
		t.Fatal("fixture mined no exceptions")
	}
	return ex, g, flowgraph.Flatten(g)
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
	// Re-flattening the reconstruction reproduces the exact columns:
	// Flatten orders nodes deterministically, so this pins both directions.
	if f2 := flowgraph.Flatten(g2); !reflect.DeepEqual(f, f2) {
		t.Error("re-flattened columns differ from the original flattening")
	}
}

func TestFlattenUnflattenNoExceptions(t *testing.T) {
	ex := paperex.New()
	g := flowgraph.Build(ex.Location, ex.BasePathLevel(), basePaths(ex), nil)
	f := flowgraph.Flatten(g)
	if len(f.ExcNode) != 0 || len(f.ExcPinLo) != 1 || len(f.ExcDurLo) != 1 {
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
}

// treeTransitions is T at every node of g, in Flatten's node order, read
// off the tree (Terminations, Children).
func treeTransitions(g *flowgraph.Graph) flowgraph.Transitions {
	var t flowgraph.Transitions
	order := []*flowgraph.Node{g.Root()}
	for i := 0; i < len(order); i++ {
		n := order[i]
		t.Lo = append(t.Lo, int32(len(t.Outcomes)))
		if ends := n.Terminations(); ends > 0 {
			t.Outcomes, t.Weights = append(t.Outcomes, flowgraph.Terminate), append(t.Weights, ends)
		}
		for _, c := range n.Children() {
			t.Outcomes, t.Weights = append(t.Outcomes, int64(c.Location)), append(t.Weights, c.Count)
			order = append(order, c)
		}
	}
	t.Lo = append(t.Lo, int32(len(t.Outcomes)))
	return t
}

// splicePool replaces del entries of the transition column t at index k
// with the given (outcome, weight) pairs, moving every range that starts
// after k. Inserting at the start of a node's range (Lo) lands in it.
func splicePool(t *flowgraph.Transitions, k, del int, outcomes, weights []int64) {
	t.Outcomes = slices.Replace(t.Outcomes, k, k+del, outcomes...)
	t.Weights = slices.Replace(t.Weights, k, k+del, weights...)
	for i := range t.Lo {
		if int(t.Lo[i]) > k {
			t.Lo[i] += int32(len(outcomes) - del)
		}
	}
}

// nodeWhere returns the first non-root node of f that keep accepts.
func nodeWhere(t *testing.T, f *flowgraph.Flat, keep func(i int, children, ends int64) bool) int {
	t.Helper()
	for i := 1; i < f.NumNodes(); i++ {
		ends := f.Counts[i]
		for j := f.ChildLo[i]; j < f.ChildLo[i+1]; j++ {
			ends -= f.Counts[j]
		}
		if keep(i, int64(f.ChildLo[i+1]-f.ChildLo[i]), ends) {
			return i
		}
	}
	t.Fatal("the fixture has no such node")
	return 0
}

// TestCheckRejectsUnderivedTransitions: a flat graph keeps no transition
// column — a node's T is its children's counts and the paths that end
// there — so a loader must accept only the column the columns derive
// (DeriveTransitions, which must read as the tree's own T) and counts Check
// accepts, and refuse the rest rather than repair it silently: a weight off
// by one, an outcome missing or extra, a zero weight, paths that end at the
// root, and counts no column can derive from.
func TestCheckRejectsUnderivedTransitions(t *testing.T) {
	ex := paperex.New()
	cases := []struct {
		name    string
		corrupt func(t *testing.T, f *flowgraph.Flat, tr *flowgraph.Transitions)
	}{
		{"child weight off by one", func(t *testing.T, f *flowgraph.Flat, tr *flowgraph.Transitions) {
			i := nodeWhere(t, f, func(_ int, children, ends int64) bool { return children > 0 && ends == 0 })
			tr.Weights[tr.Lo[i]]++
		}},
		{"terminations off by one", func(t *testing.T, f *flowgraph.Flat, tr *flowgraph.Transitions) {
			i := nodeWhere(t, f, func(_ int, _, ends int64) bool { return ends > 0 })
			tr.Weights[tr.Lo[i]]--
		}},
		{"terminations missing", func(t *testing.T, f *flowgraph.Flat, tr *flowgraph.Transitions) {
			i := nodeWhere(t, f, func(_ int, _, ends int64) bool { return ends > 0 })
			splicePool(tr, int(tr.Lo[i]), 1, nil, nil)
		}},
		{"child outcome missing", func(t *testing.T, f *flowgraph.Flat, tr *flowgraph.Transitions) {
			i := nodeWhere(t, f, func(_ int, children, ends int64) bool { return children > 0 && ends == 0 })
			splicePool(tr, int(tr.Lo[i]), 1, nil, nil)
		}},
		{"extra terminations", func(t *testing.T, f *flowgraph.Flat, tr *flowgraph.Transitions) {
			i := nodeWhere(t, f, func(_ int, children, ends int64) bool { return children > 0 && ends == 0 })
			splicePool(tr, int(tr.Lo[i]), 0, []int64{flowgraph.Terminate}, []int64{1})
		}},
		{"zero-weight terminations", func(t *testing.T, f *flowgraph.Flat, tr *flowgraph.Transitions) {
			i := nodeWhere(t, f, func(_ int, children, ends int64) bool { return children > 0 && ends == 0 })
			splicePool(tr, int(tr.Lo[i]), 0, []int64{flowgraph.Terminate}, []int64{0})
		}},
		{"negative terminations the counts balance", func(t *testing.T, f *flowgraph.Flat, tr *flowgraph.Transitions) {
			// A first stage whose paths all go on: one path less reaches
			// it, and -1 end there.
			i := nodeWhere(t, f, func(i int, children, ends int64) bool {
				return i < int(f.ChildLo[1]) && children > 0 && ends == 0
			})
			f.Paths--
			f.Counts[i]--
			tr.Weights[int(tr.Lo[0])+i-1]--
			splicePool(tr, int(tr.Lo[i]), 0, []int64{flowgraph.Terminate}, []int64{-1})
		}},
		{"extra outcome no child derives", func(t *testing.T, f *flowgraph.Flat, tr *flowgraph.Transitions) {
			i := nodeWhere(t, f, func(i int, children, _ int64) bool { return children == 0 })
			splicePool(tr, int(tr.Lo[i+1]), 0, []int64{1 << 20}, []int64{1})
			tr.Lo[i+1]++ // the insertion ends node i's range
		}},
		{"terminations at the root", func(t *testing.T, f *flowgraph.Flat, tr *flowgraph.Transitions) {
			f.Paths++
			splicePool(tr, int(tr.Lo[0]), 0, []int64{flowgraph.Terminate}, []int64{1})
		}},
		{"paths not the root's children", func(t *testing.T, f *flowgraph.Flat, _ *flowgraph.Transitions) { f.Paths++ }},
		{"count below the children's", func(t *testing.T, f *flowgraph.Flat, _ *flowgraph.Transitions) {
			i := nodeWhere(t, f, func(_ int, children, ends int64) bool { return children > 0 && ends == 0 })
			f.Counts[i]--
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, g, f := flattenFixture(t)
			var tr flowgraph.Transitions
			f.DeriveTransitions(&tr)
			if !reflect.DeepEqual(tr, treeTransitions(g)) {
				t.Fatal("the derived column is not the tree's T")
			}
			tc.corrupt(t, f, &tr)
			var derived flowgraph.Transitions
			f.DeriveTransitions(&derived)
			if reflect.DeepEqual(tr, derived) && f.Check(ex.Location) == nil {
				t.Error("the corrupt column is the one the columns derive, and Check accepts them")
			}
		})
	}

	// A zero weight cannot be made out of the fixture without unbalancing
	// something else, so it is a graph of its own: one path that reaches a
	// stage and stops there, and the same graph with that path's count
	// made 0 everywhere it appears. Only the second has a zero weight.
	a := int64(ex.Location.MustLookup("f"))
	flat := func(paths int64) *flowgraph.Flat {
		return &flowgraph.Flat{
			Paths:     paths,
			Locations: []int32{int32(hierarchy.Root), int32(a)},
			Counts:    []int64{0, paths},
			ChildLo:   []int32{1, 2, 2},
			DurLo:     []int32{0, 0, 1},
			Outcomes:  []int64{5},
			Weights:   []int64{paths},
		}
	}
	if _, err := flowgraph.Unflatten(ex.Location, pathdb.PathLevel{}, flat(1)); err != nil {
		t.Fatalf("the one-path graph does not load: %v", err)
	}
	if err := flat(0).Check(ex.Location); err == nil {
		t.Error("Check accepts a zero transition weight")
	}
}
