package flowgraph

import (
	"fmt"
	"math/rand"

	"flowcube/internal/hierarchy"
	"flowcube/internal/pathdb"
	"flowcube/internal/stats"
)

// Sampling and self-validation. A flowgraph is a generative model: Sample
// draws synthetic paths from it, which supports what-if simulation
// (replay a year of flows under last year's model) and closes the loop in
// tests — the empirical distributions of sampled paths converge to the
// model. Validate checks the structural invariants every well-formed
// flowgraph satisfies; it guards deserialized graphs.

// Sample draws one path from the flowgraph's generative model: starting at
// the root, repeatedly pick a transition (or termination) from T and a
// duration from D. The graph must be non-empty.
func (g *Graph) Sample(rng *rand.Rand) pathdb.Path {
	var p pathdb.Path
	cur := g.root
	for {
		outcome, ok := sampleOutcome(rng, cur.Transitions)
		if !ok || outcome == Terminate {
			return p
		}
		loc := hierarchy.NodeID(outcome)
		next := cur.Child(loc)
		if next == nil {
			// Counts and children can only disagree on a corrupted graph;
			// stop rather than invent structure.
			return p
		}
		dur, ok := sampleOutcome(rng, next.Durations)
		if !ok {
			dur = 0
		}
		p = append(p, pathdb.Stage{Location: loc, Duration: dur})
		cur = next
	}
}

func sampleOutcome(rng *rand.Rand, m *stats.Multinomial) (int64, bool) {
	total := m.Total()
	if total == 0 {
		return 0, false
	}
	r := rng.Int63n(total)
	for _, v := range m.Outcomes() {
		r -= m.Count(v)
		if r < 0 {
			return v, true
		}
	}
	return 0, false
}

// Validate checks the flowgraph's structural invariants:
//
//  1. every node's duration observations equal its Count;
//  2. every node's transition observations equal its Count (each visit
//     either terminates or moves on);
//  3. a transition outcome exists for exactly the node's children, and the
//     outcome count equals the child's Count;
//  4. the root's transition total equals Paths().
//
// It returns the first violation found, or nil.
func (g *Graph) Validate() error {
	if got := g.root.Transitions.Total(); got != g.paths {
		return fmt.Errorf("flowgraph: root transitions %d != paths %d", got, g.paths)
	}
	var walk func(n *Node, prefix []hierarchy.NodeID) error
	walk = func(n *Node, prefix []hierarchy.NodeID) error {
		if n.Depth > 0 {
			if got := n.Durations.Total(); got != n.Count {
				return fmt.Errorf("flowgraph: node %v durations %d != count %d", prefix, got, n.Count)
			}
			if got := n.Transitions.Total(); got != n.Count {
				return fmt.Errorf("flowgraph: node %v transitions %d != count %d", prefix, got, n.Count)
			}
		}
		var childSum int64
		for _, c := range n.Children() {
			if got := n.Transitions.Count(int64(c.Location)); got != c.Count {
				return fmt.Errorf("flowgraph: node %v transition to %d is %d, child count %d",
					prefix, c.Location, got, c.Count)
			}
			childSum += c.Count
			if err := walk(c, append(prefix, c.Location)); err != nil {
				return err
			}
		}
		var total int64
		if n.Depth > 0 {
			total = n.Count
		} else {
			total = g.paths
		}
		if term := n.Transitions.Count(Terminate); childSum+term != total {
			return fmt.Errorf("flowgraph: node %v children+terminations %d != count %d",
				prefix, childSum+term, total)
		}
		return nil
	}
	return walk(g.root, nil)
}
