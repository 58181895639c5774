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
//
// The observed outcomes are kept in ascending order, their counts beside
// them. Supports are small — a handful of durations, a node's fan-out — so a
// sorted pair of columns is smaller than a map, and every sum over one or two
// distributions is a walk (or a merge-join) in ascending outcome order that
// allocates nothing. That order is a contract, not a convenience:
// floating-point addition is not associative, the sums end up in persisted
// similarities and served JSON, and a sum taken in any other order would
// differ in its low bits.
//
// Both columns live in one backing array: outcomes in its first half,
// counts in its second, n of each in use. One slice header instead of two
// keeps the struct at 40 bytes, and the columns always grow together.
type Multinomial struct {
	buf   []int64
	n     int
	total int64
}

// cols returns the outcome and count columns. The outcome column's capacity
// ends at the counts, so an append to it can never run into them.
func (m *Multinomial) cols() (outcomes, counts []int64) {
	c := len(m.buf) / 2
	return m.buf[:m.n:c], m.buf[c : c+m.n]
}

// linearProbeMax is the support up to which find scans instead of bisecting:
// eight int64s are one cache line, and the scan has no unpredictable branch.
const linearProbeMax = 8

// find returns the index of outcome v, or the index it would be inserted at
// and false.
func (m *Multinomial) find(v int64) (int, bool) {
	o := m.buf[:m.n]
	if len(o) <= linearProbeMax {
		for i, x := range o {
			if x >= v {
				return i, x == v
			}
		}
		return len(o), false
	}
	i := sort.Search(len(o), func(i int) bool { return o[i] >= v })
	return i, i < len(o) && o[i] == v
}

// Add records n observations of outcome v (n = 0 still makes v an observed
// outcome). It panics on negative n, which would silently corrupt the
// distribution.
func (m *Multinomial) Add(v int64, n int64) {
	if n < 0 {
		panic(fmt.Sprintf("stats: negative observation count %d", n))
	}
	i, ok := m.find(v)
	if !ok {
		m.insert(i, v)
	}
	m.buf[len(m.buf)/2+i] += n
	m.total += n
}

// insert makes room for outcome v at index i, with count 0. A full
// distribution doubles; an empty one gets room for one outcome only.
func (m *Multinomial) insert(i int, v int64) {
	if 2*m.n == len(m.buf) {
		m.regrow(max(2*m.n, 1))
	}
	m.n++
	o, c := m.cols()
	copy(o[i+1:], o[i:])
	copy(c[i+1:], c[i:])
	o[i], c[i] = v, 0
}

// regrow moves the columns into one fresh backing array with room for c
// outcomes.
func (m *Multinomial) regrow(c int) { m.copyTo(m, make([]int64, 2*c)) }

// copyTo makes dst a copy of m over buf, whose length must be even and at
// least 2*m.n: outcomes in its first half, counts in its second.
func (m *Multinomial) copyTo(dst *Multinomial, buf []int64) {
	outcomes, counts := m.cols()
	copy(buf, outcomes)
	copy(buf[len(buf)/2:], counts)
	dst.buf, dst.n, dst.total = buf, m.n, m.total
}

// Observe records a single observation of outcome v.
func (m *Multinomial) Observe(v int64) { m.Add(v, 1) }

// Has reports whether v is an observed outcome.
func (m *Multinomial) Has(v int64) bool {
	_, ok := m.find(v)
	return ok
}

// Count reports the number of observations of outcome v.
func (m *Multinomial) Count(v int64) int64 {
	if i, ok := m.find(v); ok {
		return m.buf[len(m.buf)/2+i]
	}
	return 0
}

// Total reports the total number of observations.
func (m *Multinomial) Total() int64 { return m.total }

// Prob reports the empirical probability of outcome v, or 0 for an empty
// distribution.
func (m *Multinomial) Prob(v int64) float64 {
	if m.total == 0 {
		return 0
	}
	return float64(m.Count(v)) / float64(m.total)
}

// Outcomes returns the observed outcomes in ascending order, in a slice the
// caller owns.
func (m *Multinomial) Outcomes() []int64 {
	return append(make([]int64, 0, m.n), m.buf[:m.n]...)
}

// AppendSorted appends the distribution's (outcome, count) pairs in
// ascending outcome order to the two parallel slices and returns them. The
// columnar snapshot encoder uses it to pool many distributions into shared
// backing arrays without an intermediate per-distribution slice.
func (m *Multinomial) AppendSorted(outcomes, counts []int64) ([]int64, []int64) {
	o, c := m.cols()
	return append(outcomes, o...), append(counts, c...)
}

// InitSorted initializes a zero-value Multinomial from parallel slices of
// strictly increasing outcomes and non-negative counts. Snapshot decoding
// uses it to rebuild many distributions out of pooled columnar arrays; the
// slices are validated and copied, not retained (one allocation holds both
// copies), and a rejected call leaves m empty.
func (m *Multinomial) InitSorted(outcomes, counts []int64) error {
	*m = Multinomial{}
	if len(outcomes) != len(counts) {
		return fmt.Errorf("stats: %d outcomes vs %d counts", len(outcomes), len(counts))
	}
	var total int64
	for i, v := range outcomes {
		if i > 0 && outcomes[i-1] >= v {
			return fmt.Errorf("stats: outcomes not strictly increasing at index %d", i)
		}
		if counts[i] < 0 {
			return fmt.Errorf("stats: negative count %d for outcome %d", counts[i], v)
		}
		total += counts[i]
	}
	m.buf = append(append(make([]int64, 0, 2*len(outcomes)), outcomes...), counts...)
	m.n, m.total = len(outcomes), total
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
	oo, oc := other.cols()
	mo, mc := m.cols()
	i := 0
	for j, v := range oo {
		n := oc[j]
		for i < len(mo) && mo[i] < v {
			i++
		}
		if i == len(mo) || mo[i] != v {
			m.insert(i, v)
			mo, mc = m.cols()
		}
		mc[i] += n
		m.total += n
		i++
	}
}

// Clone returns a deep copy.
func (m *Multinomial) Clone() *Multinomial {
	c := *m
	c.regrow(m.n)
	return &c
}

// CopyPairInto makes da and db deep copies of a and b, with room for roomA
// and roomB more outcomes, so that many new outcomes observed by the copy
// do not reallocate it. Both copies live in one backing array sized exactly
// for them, each in its own capacity-clipped part: a regrow moves one copy
// out and leaves the other in place. Graph forks use it to copy a node's
// duration and transition distributions in one allocation.
func CopyPairInto(da, db, a, b *Multinomial, roomA, roomB int) {
	na, nb := 2*(a.n+roomA), 2*(b.n+roomB)
	buf := make([]int64, na+nb)
	a.copyTo(da, buf[:na:na])
	b.copyTo(db, buf[na:])
}

// Mean returns the expectation of the outcome value (meaningful for
// duration distributions). It returns 0 for an empty distribution.
// Outcomes are summed in ascending order so the rounding — and therefore
// every serialized mean — is identical across runs.
func (m *Multinomial) Mean() float64 {
	if m.total == 0 {
		return 0
	}
	o, c := m.cols()
	sum := 0.0
	for i, v := range o {
		sum += float64(v) * float64(c[i])
	}
	return sum / float64(m.total)
}

// joinCounts merge-joins the two distributions: it calls fn once per
// outcome of their union, in ascending order, with the outcome's count on
// each side (0 where it was not observed), and returns the size of the
// union. A nil fn only counts. This is the one loop behind every deviation
// and divergence sum; it allocates nothing.
func (m *Multinomial) joinCounts(other *Multinomial, fn func(cm, co int64)) int {
	// Indexing the arrays directly, not through cols, keeps the setup short:
	// on the small supports flowgraph nodes have, it is much of the cost.
	a, na, ha := m.buf, m.n, len(m.buf)/2
	b, nb, hb := other.buf, other.n, len(other.buf)/2
	i, j, k := 0, 0, 0
	for i < na || j < nb {
		var cm, co int64
		switch {
		case j == nb || (i < na && a[i] < b[j]):
			cm = a[ha+i]
			i++
		case i == na || b[j] < a[i]:
			co = b[hb+j]
			j++
		default:
			cm, co = a[ha+i], b[hb+j]
			i++
			j++
		}
		k++
		if fn != nil {
			fn(cm, co)
		}
	}
	return k
}

// probOf is Prob for a count already looked up.
func probOf(count, total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(count) / float64(total)
}

// MaxDeviation returns the L∞ distance between the probability vectors of m
// and other over the union of their outcomes. This is the deviation measure
// behind exception detection: a conditional distribution whose MaxDeviation
// from the node's base distribution exceeds ε is an exception.
func (m *Multinomial) MaxDeviation(other *Multinomial) float64 {
	max := 0.0
	m.joinCounts(other, func(cm, co int64) {
		if d := math.Abs(probOf(cm, m.total) - probOf(co, other.total)); d > max {
			max = d
		}
	})
	return max
}

// KLDivergence returns D(m ‖ other) with add-one (Laplace) smoothing over
// the union of outcomes, so it is finite even when the supports differ.
// Lower values mean the distributions are more alike.
func (m *Multinomial) KLDivergence(other *Multinomial) float64 {
	k := float64(m.joinCounts(other, nil))
	if k == 0 {
		return 0
	}
	mTot := float64(m.total) + k
	oTot := float64(other.total) + k
	d := 0.0
	m.joinCounts(other, func(cm, co int64) {
		p := (float64(cm) + 1) / mTot
		q := (float64(co) + 1) / oTot
		d += p * math.Log(p/q)
	})
	if d < 0 { // guard tiny negative rounding residue
		return 0
	}
	return d
}

// KLBoth returns D(m ‖ other) and D(other ‖ m), each bit for bit what
// KLDivergence returns, from one merge-join that keeps both sums: both
// smooth over the same union of outcomes and add its terms in the same
// ascending order, so the two directions share every probability they
// compute.
func (m *Multinomial) KLBoth(other *Multinomial) (ab, ba float64) {
	k := float64(m.joinCounts(other, nil))
	if k == 0 {
		return 0, 0
	}
	mTot := float64(m.total) + k
	oTot := float64(other.total) + k
	m.joinCounts(other, func(cm, co int64) {
		p := (float64(cm) + 1) / mTot
		q := (float64(co) + 1) / oTot
		ab += p * math.Log(p/q)
		ba += q * math.Log(q/p)
	})
	if ab < 0 { // guard tiny negative rounding residue, as KLDivergence does
		ab = 0
	}
	if ba < 0 {
		ba = 0
	}
	return ab, ba
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
