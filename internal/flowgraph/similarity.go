package flowgraph

import "flowcube/internal/stats"

// Flowgraph similarity (paper §4.3). The paper leaves the similarity metric
// ϕ open, suggesting the KL divergence of the probability distributions the
// flowgraphs induce. We implement exactly that: a reach-probability-weighted
// sum of per-node KL divergences of the duration and transition
// distributions, walked over the union of the two trees, with Laplace
// smoothing so structurally different graphs still compare finitely.
// Similarity symmetrizes and maps divergence into (0,1]; redundancy
// elimination then applies the paper's "ϕ(G, Gi) > τ" rule.

// Divergence returns the asymmetric weighted divergence D(a ‖ b) ≥ 0; zero
// means b induces the same distribution over paths as a.
func Divergence(a, b *Graph) float64 {
	return divergeNode(a, a.root, b.root, 1.0)
}

// noObservations is the empty distribution every absent branch is compared
// against; it is only ever read.
var noObservations stats.Multinomial

func divergeNode(a *Graph, na, nb *Node, weight float64) float64 {
	// weight is a product of reach probabilities; down a deep unlikely
	// branch it decays through denormals instead of hitting exact zero, so
	// prune with the shared epsilon comparison rather than ==.
	if stats.AlmostEqual(weight, 0) {
		return 0
	}
	// Where b lacks this branch entirely, compare against empty
	// distributions (pure smoothing mass).
	durB, trB := &noObservations, &noObservations
	if nb != nil {
		durB, trB = nb.Durations, nb.Transitions
	}
	d := weight * (na.Durations.KLDivergence(durB) + na.Transitions.KLDivergence(trB))
	for _, ca := range na.Children() {
		w := weight * na.Transitions.Prob(int64(ca.Location))
		var cb *Node
		if nb != nil {
			cb = nb.Child(ca.Location)
		}
		d += divergeNode(a, ca, cb, w)
	}
	return d
}

// Similarity returns ϕ(a, b) in (0, 1]: 1 for identical induced models,
// approaching 0 as the symmetrized divergence grows.
func Similarity(a, b *Graph) float64 {
	d := (Divergence(a, b) + Divergence(b, a)) / 2
	return 1 / (1 + d)
}
