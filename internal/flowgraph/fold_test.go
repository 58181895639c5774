package flowgraph_test

import (
	"reflect"
	"testing"

	"flowcube/internal/flowgraph"
	"flowcube/internal/hierarchy"
	"flowcube/internal/pathdb"
)

// foldInputs decodes a fold's inputs from data: the paths of one to four
// graphs, and the way each input is made — Build, Unflatten of the
// reference tree's columns, or FoldPaths into an empty graph. The
// first byte picks the input count, whether the inputs draw their first
// stages from disjoint location sets, and whether an input with no paths
// joins them; each following group of bytes is one path of up to five
// stages (an empty one adds nothing), its input, and stages over the eight
// leaves with durations 0 to 3, aggregated to the level.
func foldInputs(data []byte) (level pathdb.PathLevel, paths [][]pathdb.Path, forms []byte) {
	level = pathdb.PathLevel{Cut: hierarchy.LevelCut(similarityLocations, 1), Time: pathdb.TimeBase}
	if len(data) == 0 {
		return level, [][]pathdb.Path{nil}, []byte{0}
	}
	locs := similarityLocations.Leaves()
	k := int(data[0]%4) + 1
	disjoint, empty := data[0]&0x10 != 0, data[0]&0x20 != 0
	paths = make([][]pathdb.Path, k)
	forms = make([]byte, k)
	for data = data[1:]; len(data) >= 2; {
		head, n := data[0], int(data[1]%6)
		data = data[2:]
		n = min(n, len(data))
		in := int(head) % k
		forms[in] = head >> 4 % 3
		p := make(pathdb.Path, n)
		for i, s := range data[:n] {
			from := locs
			if disjoint && i == 0 {
				from = locs[in*2 : in*2+2]
			}
			p[i] = pathdb.Stage{Location: from[int(s)%len(from)], Duration: int64(s>>4) % 4}
		}
		data = data[n:]
		paths[in] = append(paths[in], pathdb.AggregatePath(p, level, nil))
	}
	if empty {
		paths, forms = append(paths, nil), append(forms, 2)
	}
	return level, paths, forms
}

// foldSeeds are the fuzz corpus: one input, several with overlapping and
// disjoint first stages, duration outcomes that differ between inputs, a
// second input whose prefixes the first holds, with durations it does and
// does not hold, and a zero-path input.
var foldSeeds = [][]byte{
	{},
	{0, 0, 3, 1, 2, 3, 0x10, 2, 1, 2},
	{1, 0, 3, 1, 2, 3, 1, 3, 1, 2, 0x13, 0x21, 0x11, 2, 4, 0x31, 0, 0x12},
	{0x12, 0, 2, 1, 2, 1, 2, 1, 2, 0x22, 3, 0x51, 0x13, 2, 0, 4, 5},
	{0x23, 0, 4, 1, 2, 3, 4, 0x11, 4, 0x41, 0x32, 3, 4, 0x22, 2, 0x71, 0x62, 0x13, 0, 3, 0x31, 0x22},
	{0x31, 0x21, 5, 7, 6, 5, 4, 3, 0x10, 1, 7, 1, 0, 0x21, 2, 0x17, 0x26},
	{1, 0, 3, 1, 2, 3, 0, 2, 5, 0x16, 0x21, 3, 1, 0x12, 3, 0x21, 2, 0x15},
}

// FuzzFoldMatchesReference: the column Fold of graphs, however each was
// made, and FoldPaths of the first with the others' paths, equal column for
// column the reference tree built one path at a time over their
// concatenated paths, carry no exception, and validate; a fold of graphs at
// different path levels is refused.
func FuzzFoldMatchesReference(f *testing.F) {
	for _, seed := range foldSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		level, paths, forms := foldInputs(data)
		ref := flowgraph.NewRef()
		graphs := make([]*flowgraph.Graph, len(paths))
		for k, ps := range paths {
			one := flowgraph.NewRef()
			for _, p := range ps {
				ref.Add(p)
				one.Add(p)
			}
			switch forms[k] {
			case 0:
				graphs[k] = flowgraph.Build(similarityLocations, level, ps, nil)
			case 1:
				g, err := flowgraph.Unflatten(similarityLocations, level, one.Flat())
				if err != nil {
					t.Fatal(err)
				}
				graphs[k] = g
			default:
				graphs[k] = flowgraph.FoldPaths(flowgraph.New(similarityLocations, level), append([]pathdb.Path(nil), ps...))
			}
		}
		got, err := flowgraph.Fold(graphs)
		if err != nil {
			t.Fatal(err)
		}
		var rest []pathdb.Path
		for _, ps := range paths[1:] {
			rest = append(rest, ps...)
		}
		viaPaths := flowgraph.FoldPaths(graphs[0], rest)
		w := ref.Flat()
		for name, got := range map[string]*flowgraph.Graph{"Fold": got, "FoldPaths": viaPaths} {
			g := got.Columns()
			for _, c := range []struct {
				name      string
				got, want any
			}{
				{"Paths", g.Paths, w.Paths}, {"Locations", g.Locations, w.Locations}, {"Counts", g.Counts, w.Counts},
				{"ChildLo", g.ChildLo, w.ChildLo}, {"DurLo", g.DurLo, w.DurLo},
				{"Outcomes", g.Outcomes, w.Outcomes}, {"Weights", g.Weights, w.Weights},
			} {
				if !reflect.DeepEqual(c.got, c.want) {
					t.Fatalf("%s: %s holds %v, the tree of the concatenated paths %v", c.name, name, c.got, c.want)
				}
			}
			if got.Paths() != ref.Paths() || len(g.ExcNode) != 0 {
				t.Fatalf("%s summarizes %d paths with %d exceptions, the tree %d paths", name, got.Paths(), len(g.ExcNode), ref.Paths())
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("%s does not validate: %v", name, err)
			}
		}
		coarse := flowgraph.New(similarityLocations, pathdb.PathLevel{Cut: level.Cut, Time: pathdb.TimeLevel{Grain: 2}})
		if _, err := flowgraph.Fold(append(graphs, coarse)); err == nil {
			t.Fatal("a fold of graphs at different path levels was not refused")
		}
	})
}
