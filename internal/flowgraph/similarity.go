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
	d, _ := klWalk(a.cols, b.cols, 0, 0, 1, 0)
	return d
}

// Similarity returns ϕ(a, b) in (0, 1]: 1 for identical induced models,
// approaching 0 as the symmetrized divergence grows. Both directions come
// from one walk of the two graphs' columns.
func Similarity(a, b *Graph) float64 {
	ab, ba := klWalk(a.cols, b.cols, 0, 0, 1, 1)
	return 1 / (1 + (ab+ba)/2)
}

// klWalk walks the union of the subtrees under na and nb, node indices of
// a and b at one prefix, -1 where a graph lacks it, and returns both
// directions of their divergence: ab weighs D(na ‖ nb) by wa, na's reach
// probability, and sums it over na's subtree; ba is the same from nb's side.
// A side is on where its node exists and its weight has not decayed to
// zero; an off side adds nothing below, and a zero weight switches a side
// off from the start. Each side adds its node's term first and then its own
// children's, in ascending location order, so each sum is bit for bit the
// one a walk of that side's graph alone would take.
func klWalk(a, b *Flat, na, nb int32, wa, wb float64) (ab, ba float64) {
	// A weight is a product of reach probabilities; down a deep unlikely
	// branch it decays through denormals instead of hitting exact zero, so
	// prune with the shared epsilon comparison rather than ==.
	onA := na >= 0 && !stats.AlmostEqual(wa, 0)
	onB := nb >= 0 && !stats.AlmostEqual(wb, 0)
	if !onA && !onB {
		return 0, 0
	}
	ta, tb := a.transAt(na), b.transAt(nb)
	da, db := a.durationsAt(na), b.durationsAt(nb)
	switch {
	case onA && onB:
		dab, dba := da.KLBoth(&db)
		tab, tba := klBoth(&ta, &tb)
		ab, ba = wa*(dab+tab), wb*(dba+tba)
	case onA:
		ab = wa * (da.KLDivergence(&db) + klDivergence(&ta, &tb))
	default:
		ba = wb * (db.KLDivergence(&da) + klDivergence(&tb, &ta))
	}
	ia, ea := ta.lo, ta.lo+int32(len(ta.counts))
	ib, eb := tb.lo, tb.lo+int32(len(tb.counts))
	for ia < ea || ib < eb {
		xa, xb := int32(-1), int32(-1)
		switch {
		case ib == eb || (ia < ea && a.Locations[ia] < b.Locations[ib]):
			xa = ia
			ia++
		case ia == ea || b.Locations[ib] < a.Locations[ia]:
			xb = ib
			ib++
		default:
			xa, xb = ia, ib
			ia++
			ib++
		}
		// A child is walked for a side that is on and has it; the other
		// side's child, if any, is only what it is compared against.
		inA, inB := onA && xa >= 0, onB && xb >= 0
		if !inA && !inB {
			continue
		}
		var cwa, cwb float64
		if inA {
			cwa = wa * stats.Prob(a.Counts[xa], ta.total)
		}
		if inB {
			cwb = wb * stats.Prob(b.Counts[xb], tb.total)
		}
		dab, dba := klWalk(a, b, xa, xb, cwa, cwb)
		if inA {
			ab += dab
		}
		if inB {
			ba += dba
		}
	}
	return ab, ba
}
