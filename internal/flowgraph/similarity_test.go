package flowgraph_test

import (
	"math"
	"testing"

	"flowcube/internal/flowgraph"
	"flowcube/internal/hierarchy"
	"flowcube/internal/pathdb"
	"flowcube/internal/stats"
)

// referenceDivergence is D(a ‖ b) as two separate tree walks computed it
// before Similarity took both directions from one: a walk of a's tree alone,
// each node against b's node at the same prefix (or nothing), children in
// ascending location order, pruning where the reach weight has decayed to
// zero. pruned counts the prunes, so a test can tell it reached them.
func referenceDivergence(a, b *flowgraph.Graph, pruned *int) float64 {
	return referenceDivergeNode(a.Root(), b.Root(), 1.0, pruned)
}

var referenceEmpty stats.Multinomial

func referenceDivergeNode(na, nb *flowgraph.Node, weight float64, pruned *int) float64 {
	if stats.AlmostEqual(weight, 0) {
		*pruned++
		return 0
	}
	durB, trB := &referenceEmpty, &referenceEmpty
	if nb != nil {
		durB, trB = nb.Durations, nb.Transitions
	}
	d := weight * (na.Durations.KLDivergence(durB) + na.Transitions.KLDivergence(trB))
	for _, ca := range na.Children() {
		w := weight * na.Transitions.Prob(int64(ca.Location))
		var cb *flowgraph.Node
		if nb != nil {
			cb = nb.Child(ca.Location)
		}
		d += referenceDivergeNode(ca, cb, w, pruned)
	}
	return d
}

// checkSimilarity compares Similarity and both directions of Divergence
// with the two-walk reference, bit for bit, and returns how many branches
// the reference pruned.
func checkSimilarity(t *testing.T, a, b *flowgraph.Graph) int {
	t.Helper()
	pruned := 0
	ab, ba := referenceDivergence(a, b, &pruned), referenceDivergence(b, a, &pruned)
	want := 1 / (1 + (ab+ba)/2)
	for _, c := range []struct {
		what      string
		got, want float64
	}{
		{"Similarity(a, b)", flowgraph.Similarity(a, b), want},
		{"Divergence(a, b)", flowgraph.Divergence(a, b), ab},
		{"Divergence(b, a)", flowgraph.Divergence(b, a), ba},
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Fatalf("%s = %v (%#x), the two-walk reference %v (%#x)",
				c.what, c.got, math.Float64bits(c.got), c.want, math.Float64bits(c.want))
		}
	}
	return pruned
}

// similarityLocations is the location hierarchy the generated pairs use:
// eight leaves, kept at full detail.
var similarityLocations = hierarchy.Generate("loc", 8)

// similarityPair decodes a pair of graphs from data. The first byte picks
// how the two relate — b a subset of a's paths (nested), the two over
// disjoint halves of the locations, or independent draws that partly
// overlap — and each following group of bytes adds one path 2^k times, or a
// ladder: a deep path once plus one of its prefixes 2^20 to 2^43 times.
// Reach weights telescope to the share of paths through a node, so only a
// branch that rare decays to the prune; the exponents straddle its 1e-9.
func similarityPair(data []byte) (a, b *flowgraph.Graph) {
	locs := similarityLocations.Leaves()
	level := pathdb.PathLevel{Cut: hierarchy.LevelCut(similarityLocations, 1), Time: pathdb.TimeBase}
	a = flowgraph.New(similarityLocations, level, nil)
	b = flowgraph.New(similarityLocations, level, nil)
	if len(data) == 0 {
		return a, b
	}
	// add folds p into g 2^exp times: once, then doubled exp times.
	add := func(g *flowgraph.Graph, p pathdb.Path, exp int) {
		one := flowgraph.New(similarityLocations, level, nil)
		one.AddAggregated(p)
		for ; exp > 0; exp-- {
			if err := one.Merge(one.Clone()); err != nil {
				panic(err)
			}
		}
		if err := g.Merge(one); err != nil {
			panic(err)
		}
	}
	mode := data[0] % 3
	for data = data[1:]; len(data) >= 3; {
		head, n, seed := data[0], int(data[1]%12)+1, data[2:]
		if len(seed) > n {
			seed = seed[:n]
		}
		data = data[2+len(seed):]
		toB := head&1 != 0
		from := locs
		if mode == 1 { // disjoint: a draws from the lower half, b the upper
			from = locs[:len(locs)/2]
			if toB {
				from = locs[len(locs)/2:]
			}
		}
		p := make(pathdb.Path, len(seed))
		for i, s := range seed {
			p[i] = pathdb.Stage{Location: from[int(s)%len(from)], Duration: int64(s>>4) % 4}
		}
		g := a
		if mode != 0 && toB {
			g = b
		}
		if head&0x40 != 0 && len(p) > 1 { // ladder
			add(g, p[:1+int(head>>1)%(len(p)-1)], 20+int(head>>2)%24)
			add(g, p, 0)
			continue
		}
		add(g, p, int(head>>1)%8)
		if mode == 0 && toB {
			add(b, p, int(head>>1)%8)
		}
	}
	return a, b
}

// similaritySeeds are the fuzz corpus and the fixed cases of
// TestSimilarityMatchesReference: each relation between the trees, with and
// without ladders.
var similaritySeeds = [][]byte{
	{},
	{0, 3, 4, 1, 2, 3, 4, 2, 3, 1, 2, 3, 5, 2, 9, 9},
	{0, 0x41, 11, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 1, 2, 5, 6},
	{1, 2, 3, 1, 2, 3, 3, 3, 9, 8, 7, 4, 2, 1, 1},
	{1, 0x41, 9, 1, 130, 3, 4, 5, 6, 7, 8, 9, 10, 0x40, 9, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3},
	{2, 7, 5, 1, 2, 3, 4, 5, 6, 6, 3, 1, 2, 3, 4, 0x43, 10, 200, 100, 50, 25, 12, 6, 3, 1, 0, 9, 9},
	{2, 0x42, 11, 17, 34, 51, 68, 85, 102, 119, 136, 153, 170, 187, 204, 0x43, 11, 17, 34, 51, 68, 85, 102, 119, 136, 153, 170, 187, 204},
}

// TestSimilarityMatchesReference: the one-walk Similarity and Divergence
// equal the two-walk reference bit for bit on nested, disjoint and partly
// overlapping trees, and the fixed cases reach the prune.
func TestSimilarityMatchesReference(t *testing.T) {
	pruned := 0
	for _, seed := range similaritySeeds {
		a, b := similarityPair(seed)
		pruned += checkSimilarity(t, a, b)
		pruned += checkSimilarity(t, a, a)
	}
	ex, g := buildExample(t)
	cell := flowgraph.Build(ex.Location, ex.BasePathLevel(), basePaths(ex)[3:6], nil)
	checkSimilarity(t, cell, g)
	if pruned == 0 {
		t.Fatal("no case decayed a reach weight to the prune; the ladders test nothing")
	}
}

// FuzzSimilarityMatchesReference is TestSimilarityMatchesReference over
// arbitrary graph pairs.
func FuzzSimilarityMatchesReference(f *testing.F) {
	for _, seed := range similaritySeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := similarityPair(data)
		checkSimilarity(t, a, b)
	})
}
