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
	d, _ := diverge(a.root, b.root, 1, 0)
	return d
}

// Similarity returns ϕ(a, b) in (0, 1]: 1 for identical induced models,
// approaching 0 as the symmetrized divergence grows. Both directions come
// from one walk of the two trees.
func Similarity(a, b *Graph) float64 {
	ab, ba := diverge(a.root, b.root, 1, 1)
	return 1 / (1 + (ab+ba)/2)
}

// noObservations is the empty distribution every absent branch is compared
// against; it is only ever read.
var noObservations stats.Multinomial

// diverge walks the union of the subtrees under na and nb, the nodes at one
// prefix of two graphs, either of which may be nil, and returns both
// directions of their divergence: ab weighs D(na ‖ nb) by wa, na's reach
// probability, and sums it over na's subtree; ba is the same from nb's side.
// A side is on where its node exists and its weight has not decayed to
// zero; an off side adds nothing below, and a zero weight switches a side
// off from the start. Each side adds its node's term first and then its own
// children's, in ascending location order, so each sum is bit for bit the
// one a walk of that side's tree alone would take.
func diverge(na, nb *Node, wa, wb float64) (ab, ba float64) {
	// A weight is a product of reach probabilities; down a deep unlikely
	// branch it decays through denormals instead of hitting exact zero, so
	// prune with the shared epsilon comparison rather than ==.
	onA := na != nil && !stats.AlmostEqual(wa, 0)
	onB := nb != nil && !stats.AlmostEqual(wb, 0)
	switch {
	case onA && onB:
		dab, dba := na.Durations.KLBoth(nb.Durations)
		tab, tba := na.Transitions.KLBoth(nb.Transitions)
		ab, ba = wa*(dab+tab), wb*(dba+tba)
	case onA:
		ab = wa * against(na, nb)
	case onB:
		ba = wb * against(nb, na)
	default:
		return 0, 0
	}
	var ca, cb []*Node
	if na != nil {
		ca = na.children
	}
	if nb != nil {
		cb = nb.children
	}
	for i, j := 0, 0; i < len(ca) || j < len(cb); {
		var xa, xb *Node
		switch {
		case j == len(cb) || (i < len(ca) && ca[i].Location < cb[j].Location):
			xa = ca[i]
			i++
		case i == len(ca) || cb[j].Location < ca[i].Location:
			xb = cb[j]
			j++
		default:
			xa, xb = ca[i], cb[j]
			i++
			j++
		}
		// A child is walked for a side that is on and has it; the other
		// side's child, if any, is only what it is compared against.
		inA, inB := onA && xa != nil, onB && xb != nil
		if !inA && !inB {
			continue
		}
		var cwa, cwb float64
		if inA {
			cwa = wa * na.Transitions.Prob(int64(xa.Location))
		}
		if inB {
			cwb = wb * nb.Transitions.Prob(int64(xb.Location))
		}
		dab, dba := diverge(xa, xb, cwa, cwb)
		if inA {
			ab += dab
		}
		if inB {
			ba += dba
		}
	}
	return ab, ba
}

// against is D(n ‖ o) at one node, o's distributions empty where o is nil.
func against(n, o *Node) float64 {
	dur, tr := &noObservations, &noObservations
	if o != nil {
		dur, tr = o.Durations, o.Transitions
	}
	return n.Durations.KLDivergence(dur) + n.Transitions.KLDivergence(tr)
}
