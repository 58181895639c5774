package flowgraph

import "fmt"

// Fold returns the exact associative fold of graphs: a fresh graph holding
// the union of every input's path observations, built by Merge (paper
// Lemma 4.2 — duration and transition distributions are algebraic, so the
// result is independent of fold order and identical to a graph built from
// the concatenated paths). Exceptions are holistic (Lemma 4.3) and cannot
// be folded; the result carries none. Inputs are not mutated.
//
// This is the shared fold path: core.ApplyDelta relies on the same
// Merge associativity when folding appended paths into touched cells, the
// merge-ablation benchmark measures it, and the OLAP engine (internal/olap,
// core.Answer) uses Fold to reconstruct non-materialized cells from their
// materialized descendants at query time.
func Fold(graphs []*Graph) (*Graph, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("flowgraph: fold of zero graphs")
	}
	out := graphs[0].Clone()
	out.ClearExceptions()
	for _, g := range graphs[1:] {
		if err := out.Merge(g); err != nil {
			return nil, err
		}
	}
	return out, nil
}
