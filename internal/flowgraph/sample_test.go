package flowgraph_test

import (
	"math"
	"math/rand"
	"testing"

	"flowcube/internal/flowgraph"
	"flowcube/internal/hierarchy"
	"flowcube/internal/paperex"
	"flowcube/internal/pathdb"
	"flowcube/internal/stats"
)

func TestValidateBuiltGraphs(t *testing.T) {
	ex := paperex.New()
	paths := basePaths(ex)
	for _, level := range []pathdb.PathLevel{
		ex.BasePathLevel(), ex.TransportPathLevel(), ex.StorePathLevel(),
	} {
		g := flowgraph.Build(ex.Location, level, paths, nil)
		if err := g.Validate(); err != nil {
			t.Errorf("built graph at %s invalid: %v", level.Key(), err)
		}
	}
	// Merged graphs stay valid.
	a := flowgraph.Build(ex.Location, ex.BasePathLevel(), paths[:4], nil)
	b := flowgraph.Build(ex.Location, ex.BasePathLevel(), paths[4:], nil)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Errorf("merged graph invalid: %v", err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	ex := paperex.New()
	g := flowgraph.Build(ex.Location, ex.BasePathLevel(), basePaths(ex), nil)
	// Give a node inconsistent counts: Validate must object.
	bad := stats.NewMultinomial()
	bad.Add(1, 3)
	n := g.NodeAt([]hierarchy.NodeID{ex.Location.MustLookup("f")})
	n.Count, n.Durations, n.Transitions = 99, bad, bad
	if err := g.Validate(); err == nil {
		t.Errorf("corrupted graph validated")
	}
}

// TestSampleConvergence: sampled paths' empirical route frequencies
// converge to the model's route probabilities, and every sampled path gets
// positive model probability.
func TestSampleConvergence(t *testing.T) {
	ex := paperex.New()
	g := flowgraph.Build(ex.Location, ex.BasePathLevel(), basePaths(ex), nil)
	rng := rand.New(rand.NewSource(3))

	const n = 20000
	counts := map[string]int{}
	keyOf := func(p pathdb.Path) string {
		s := ""
		for _, st := range p {
			s += string(rune(st.Location)) + "|"
		}
		return s
	}
	for i := 0; i < n; i++ {
		p := g.Sample(rng)
		if len(p) == 0 {
			t.Fatal("sampled an empty path")
		}
		if g.PathProb(p) <= 0 {
			t.Fatalf("sampled path has zero model probability: %v", p)
		}
		counts[keyOf(p)]++
	}
	// The dominant route f,d,t,s,c has marginal probability 3/8 on routes.
	routes := g.TopPaths(1)
	want := routes[0].Prob
	gotKey := ""
	var seq pathdb.Path
	for _, l := range routes[0].Locations {
		seq = append(seq, pathdb.Stage{Location: l})
	}
	gotKey = keyOf(seq)
	got := float64(counts[gotKey]) / n
	if math.Abs(got-want) > 0.02 {
		t.Errorf("top route frequency %g, model %g", got, want)
	}
}

func TestSampleEmptyGraph(t *testing.T) {
	ex := paperex.New()
	g := flowgraph.New(ex.Location, ex.BasePathLevel(), nil)
	if p := g.Sample(rand.New(rand.NewSource(1))); len(p) != 0 {
		t.Errorf("empty graph sampled a path: %v", p)
	}
}
