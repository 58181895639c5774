package flowgraph

import (
	"fmt"

	"flowcube/internal/hierarchy"
)

// Validate checks the flowgraph's structural invariant: every node's
// duration observations equal its Count. It returns the first violation
// found, or nil; it guards deserialized graphs.
//
// Three more invariants hold by construction, since T is read off the tree
// (transitions.go): every node's transition observations equal its Count
// (each visit either terminates or moves on), a transition outcome exists
// for exactly the node's children with the child's Count, and the root's
// transition total equals Paths(). Flat.Check refuses a snapshot whose
// transition column says otherwise.
func (g *Graph) Validate() error {
	var walk func(n *Node, prefix []hierarchy.NodeID) error
	walk = func(n *Node, prefix []hierarchy.NodeID) error {
		if n.Depth > 0 {
			if got := n.Durations.Total(); got != n.Count {
				return fmt.Errorf("flowgraph: node %v durations %d != count %d", prefix, got, n.Count)
			}
		}
		for _, c := range n.Children() {
			if err := walk(c, append(prefix, c.Location)); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(g.Root(), nil)
}
