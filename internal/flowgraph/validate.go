package flowgraph

import (
	"fmt"

	"flowcube/internal/hierarchy"
)

// Validate checks the flowgraph's structural invariants:
//
//  1. every node's duration observations equal its Count;
//  2. every node's transition observations equal its Count (each visit
//     either terminates or moves on);
//  3. a transition outcome exists for exactly the node's children, and the
//     outcome count equals the child's Count;
//  4. the root's transition total equals Paths().
//
// It returns the first violation found, or nil; it guards deserialized
// graphs.
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
