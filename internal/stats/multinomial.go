// Package stats provides the small statistical substrate the flowgraph
// measure is built on: multinomial count distributions over integer-keyed
// outcomes, deviation metrics used to detect exceptions (the paper's ε
// parameter), and smoothed Kullback–Leibler divergence used by the
// flowgraph similarity function for redundancy elimination (the paper's τ
// parameter, §4.3).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Multinomial is a count-backed multinomial distribution over int64
// outcomes. Outcomes are durations (in time units) for node duration
// distributions, or node identifiers for transition distributions. The zero
// value is an empty distribution ready to use.
type Multinomial struct {
	counts map[int64]int64
	total  int64
}

// NewMultinomial returns an empty distribution.
func NewMultinomial() *Multinomial {
	return &Multinomial{counts: make(map[int64]int64)}
}

// Add records n observations of outcome v. It panics on negative n, which
// would silently corrupt the distribution.
func (m *Multinomial) Add(v int64, n int64) {
	if n < 0 {
		panic(fmt.Sprintf("stats: negative observation count %d", n))
	}
	if m.counts == nil {
		m.counts = make(map[int64]int64)
	}
	m.counts[v] += n
	m.total += n
}

// Observe records a single observation of outcome v.
func (m *Multinomial) Observe(v int64) { m.Add(v, 1) }

// Count reports the number of observations of outcome v.
func (m *Multinomial) Count(v int64) int64 {
	return m.counts[v]
}

// Total reports the total number of observations.
func (m *Multinomial) Total() int64 { return m.total }

// Support reports the number of distinct outcomes observed.
func (m *Multinomial) Support() int { return len(m.counts) }

// Prob reports the empirical probability of outcome v, or 0 for an empty
// distribution.
func (m *Multinomial) Prob(v int64) float64 {
	if m.total == 0 {
		return 0
	}
	return float64(m.counts[v]) / float64(m.total)
}

// Outcomes returns the observed outcomes in ascending order.
func (m *Multinomial) Outcomes() []int64 {
	out := make([]int64, 0, len(m.counts))
	for v := range m.counts {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AppendSorted appends the distribution's (outcome, count) pairs in
// ascending outcome order to the two parallel slices and returns them. The
// columnar snapshot encoder uses it to pool many distributions into shared
// backing arrays without an intermediate per-distribution slice.
func (m *Multinomial) AppendSorted(outcomes, counts []int64) ([]int64, []int64) {
	for _, v := range m.Outcomes() {
		outcomes = append(outcomes, v)
		counts = append(counts, m.counts[v])
	}
	return outcomes, counts
}

// InitSorted initializes a zero-value Multinomial from parallel slices of
// strictly increasing outcomes and non-negative counts. Snapshot decoding
// uses it to rebuild many distributions out of pooled columnar arrays with
// exactly one map allocation each; the slices are copied, not retained.
func (m *Multinomial) InitSorted(outcomes, counts []int64) error {
	if len(outcomes) != len(counts) {
		return fmt.Errorf("stats: %d outcomes vs %d counts", len(outcomes), len(counts))
	}
	m.counts = make(map[int64]int64, len(outcomes))
	m.total = 0
	for i, v := range outcomes {
		if i > 0 && outcomes[i-1] >= v {
			return fmt.Errorf("stats: outcomes not strictly increasing at index %d", i)
		}
		if counts[i] < 0 {
			return fmt.Errorf("stats: negative count %d for outcome %d", counts[i], v)
		}
		m.counts[v] = counts[i]
		m.total += counts[i]
	}
	return nil
}

// Merge folds the observations of other into m. This is what makes the
// duration and transition components of a flowgraph algebraic measures
// (paper Lemma 4.2): a parent cell's distribution is the merge of its
// children's.
func (m *Multinomial) Merge(other *Multinomial) {
	if other == nil {
		return
	}
	for v, n := range other.counts {
		m.Add(v, n)
	}
}

// Clone returns a deep copy.
func (m *Multinomial) Clone() *Multinomial {
	c := &Multinomial{counts: make(map[int64]int64, len(m.counts)), total: m.total}
	for v, n := range m.counts {
		c.counts[v] = n
	}
	return c
}

// Mode returns the most probable outcome and its probability. The second
// return is false for an empty distribution. Ties break toward the smaller
// outcome so the result is deterministic.
func (m *Multinomial) Mode() (int64, float64, bool) {
	if m.total == 0 {
		return 0, 0, false
	}
	var best int64
	var bestN int64 = -1
	for _, v := range m.Outcomes() {
		if n := m.counts[v]; n > bestN {
			best, bestN = v, n
		}
	}
	return best, float64(bestN) / float64(m.total), true
}

// Mean returns the expectation of the outcome value (meaningful for
// duration distributions). It returns 0 for an empty distribution.
// Outcomes are summed in ascending order so the rounding — and therefore
// every serialized mean — is identical across runs.
func (m *Multinomial) Mean() float64 {
	if m.total == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range m.Outcomes() {
		sum += float64(v) * float64(m.counts[v])
	}
	return sum / float64(m.total)
}

// unionOutcomes returns the union of the two distributions' outcomes in
// ascending order. Deviation and divergence sums iterate this slice instead
// of a set map: floating-point addition is not associative, so summing in
// map iteration order would give different low bits on every run — and
// those bits end up in persisted similarities and served JSON.
func (m *Multinomial) unionOutcomes(other *Multinomial) []int64 {
	out := make([]int64, 0, len(m.counts)+other.Support())
	for v := range m.counts {
		out = append(out, v)
	}
	for v := range other.counts {
		if _, dup := m.counts[v]; !dup {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MaxDeviation returns the L∞ distance between the probability vectors of m
// and other over the union of their outcomes. This is the deviation measure
// behind exception detection: a conditional distribution whose MaxDeviation
// from the node's base distribution exceeds ε is an exception.
func (m *Multinomial) MaxDeviation(other *Multinomial) float64 {
	max := 0.0
	for _, v := range m.unionOutcomes(other) {
		d := math.Abs(m.Prob(v) - other.Prob(v))
		if d > max {
			max = d
		}
	}
	return max
}

// TotalVariation returns half the L1 distance between the two probability
// vectors, an alternative deviation metric exposed for applications that
// prefer mass-weighted deviations.
func (m *Multinomial) TotalVariation(other *Multinomial) float64 {
	sum := 0.0
	for _, v := range m.unionOutcomes(other) {
		sum += math.Abs(m.Prob(v) - other.Prob(v))
	}
	return sum / 2
}

// KLDivergence returns D(m ‖ other) with add-one (Laplace) smoothing over
// the union of outcomes, so it is finite even when the supports differ.
// Lower values mean the distributions are more alike.
func (m *Multinomial) KLDivergence(other *Multinomial) float64 {
	outcomes := m.unionOutcomes(other)
	k := float64(len(outcomes))
	if k == 0 {
		return 0
	}
	mTot := float64(m.total) + k
	oTot := float64(other.total) + k
	d := 0.0
	for _, v := range outcomes {
		p := (float64(m.counts[v]) + 1) / mTot
		q := (float64(other.counts[v]) + 1) / oTot
		d += p * math.Log(p/q)
	}
	if d < 0 { // guard tiny negative rounding residue
		return 0
	}
	return d
}

// String renders the distribution as "v:p v:p ..." with outcomes in
// ascending order, matching the paper's Figure-3 annotation style.
func (m *Multinomial) String() string {
	var b strings.Builder
	for i, v := range m.Outcomes() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%.2f", v, m.Prob(v))
	}
	return b.String()
}
