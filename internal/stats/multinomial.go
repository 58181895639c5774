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
// Both columns live in one backing array: outcomes at its start, counts
// from the middle of its capacity on. The slice's length is the number of
// outcomes in use and half its capacity the number there is room for, so one
// slice header and the total are the whole struct, 32 bytes, and the columns
// always grow together.
type Multinomial struct {
	buf   []int64
	total int64
}

// cols returns the outcome and count columns. The outcome column's capacity
// ends at the counts, so an append to it can never run into them.
func (m *Multinomial) cols() (outcomes, counts []int64) {
	n, h := len(m.buf), cap(m.buf)/2
	return m.buf[:n:h], m.buf[h : h+n]
}

// linearProbeMax is the support up to which find scans instead of bisecting:
// eight int64s are one cache line, and the scan has no unpredictable branch.
const linearProbeMax = 8

// find returns the index of outcome v, or the index it would be inserted at
// and false.
func (m *Multinomial) find(v int64) (int, bool) {
	o := m.buf
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

// count points at the count of the outcome at index i.
func (m *Multinomial) count(i int) *int64 { return &m.buf[:cap(m.buf)][cap(m.buf)/2+i] }

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
	*m.count(i) += n
	m.total += n
}

// insert makes room for outcome v at index i, with count 0. A full
// distribution doubles; an empty one gets room for one outcome only.
func (m *Multinomial) insert(i int, v int64) {
	n := len(m.buf)
	if 2*n == cap(m.buf) {
		m.regrow(max(2*n, 1))
	}
	m.buf = m.buf[:n+1]
	o, c := m.cols()
	copy(o[i+1:], o[i:])
	copy(c[i+1:], c[i:])
	o[i], c[i] = v, 0
}

// regrow moves the columns into one fresh backing array with room for c
// outcomes.
func (m *Multinomial) regrow(c int) {
	outcomes, counts := m.cols()
	buf := make([]int64, 2*c)
	copy(buf, outcomes)
	copy(buf[c:], counts)
	m.buf = buf[:len(outcomes)]
}

// Observe records a single observation of outcome v.
func (m *Multinomial) Observe(v int64) { m.Add(v, 1) }

// Count reports the number of observations of outcome v.
func (m *Multinomial) Count(v int64) int64 {
	if i, ok := m.find(v); ok {
		return *m.count(i)
	}
	return 0
}

// Total reports the total number of observations.
func (m *Multinomial) Total() int64 { return m.total }

// Prob reports the empirical probability of outcome v, or 0 for an empty
// distribution.
func (m *Multinomial) Prob(v int64) float64 { return Prob(m.Count(v), m.total) }

// Outcomes returns the observed outcomes in ascending order, in a slice the
// caller owns.
func (m *Multinomial) Outcomes() []int64 {
	return append(make([]int64, 0, len(m.buf)), m.buf...)
}

// Columns returns the observed outcomes in ascending order and their
// counts, as views of m's own storage: callers must not modify them, and
// they hold until m next changes.
func (m *Multinomial) Columns() (outcomes, counts []int64) { return m.cols() }

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
	m.buf = append(append(make([]int64, 0, 2*len(outcomes)), outcomes...), counts...)[:len(outcomes)]
	m.total = total
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

// Clone returns a deep copy, with no room to spare.
func (m *Multinomial) Clone() *Multinomial {
	c := *m
	c.regrow(len(m.buf))
	return &c
}

// Mean returns the expectation of the outcome value (meaningful for
// duration distributions). It returns 0 for an empty distribution.
// Outcomes are summed in ascending order so the rounding — and therefore
// every serialized mean — is identical across runs.
func (m *Multinomial) Mean() float64 {
	s := m.Sorted()
	return s.Mean()
}

// Sorted is a distribution kept as two columns elsewhere, read in place:
// Outcomes strictly ascending, Counts beside them, and Total their sum. A
// flowgraph at rest pools every node's duration distribution into shared
// columns and compares them as Sorted views; a Multinomial's sums go through
// the same views (Multinomial.Sorted), so both forms give the same floats,
// bit for bit. The zero value is the empty distribution.
type Sorted struct {
	Outcomes, Counts []int64
	Total            int64
}

// Sorted returns a view of m's columns, which holds until m next changes.
func (m *Multinomial) Sorted() Sorted {
	o, c := m.cols()
	return Sorted{Outcomes: o, Counts: c, Total: m.total}
}

// Mean is Multinomial.Mean of the view, summed in the same order.
func (a *Sorted) Mean() float64 {
	if a.Total == 0 {
		return 0
	}
	sum := 0.0
	for i, v := range a.Outcomes {
		sum += float64(v) * float64(a.Counts[i])
	}
	return sum / float64(a.Total)
}

// join merge-joins the two distributions: it calls fn once per outcome of
// their union, in ascending order, with the outcome's count on each side (0
// where it was not observed), and returns the size of the union. A nil fn
// only counts. It is the one loop behind every deviation and divergence sum
// of two distributions; it allocates nothing.
func (a *Sorted) join(b *Sorted, fn func(ca, cb int64)) int {
	ao, ac, bo, bc := a.Outcomes, a.Counts, b.Outcomes, b.Counts
	i, j, k := 0, 0, 0
	for i < len(ao) || j < len(bo) {
		var x, y int64
		switch {
		case j == len(bo) || (i < len(ao) && ao[i] < bo[j]):
			x = ac[i]
			i++
		case i == len(ao) || bo[j] < ao[i]:
			y = bc[j]
			j++
		default:
			x, y = ac[i], bc[j]
			i++
			j++
		}
		k++
		if fn != nil {
			fn(x, y)
		}
	}
	return k
}

// MaxDeviation is Multinomial.MaxDeviation of two views.
func (a *Sorted) MaxDeviation(b *Sorted) float64 {
	d := NewDeviation(a.Total, b.Total)
	a.join(b, d.Add)
	return d.Max()
}

// KLDivergence is Multinomial.KLDivergence of two views.
func (a *Sorted) KLDivergence(b *Sorted) float64 {
	d := NewKL(a.join(b, nil), a.Total, b.Total)
	a.join(b, d.AddAB)
	ab, _ := d.Sums()
	return ab
}

// KLBoth is Multinomial.KLBoth of two views.
func (a *Sorted) KLBoth(b *Sorted) (ab, ba float64) {
	d := NewKL(a.join(b, nil), a.Total, b.Total)
	a.join(b, d.Add)
	return d.Sums()
}

// Prob is count/total, the empirical probability of an outcome observed
// count times out of total, or 0 when total is.
func Prob(count, total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(count) / float64(total)
}

// The sums below compare two distributions a and b one outcome of the union
// of their outcomes at a time, in ascending outcome order, given each
// outcome's count on either side (0 where that side did not observe it).
// They are the one copy of that arithmetic: the Multinomial methods feed
// them from Sorted.join, and a distribution kept in another form — a
// flowgraph node's transition distribution is its children's counts — gets
// the same floats, bit for bit, by feeding them the same counts in the same
// order.

// Deviation is the L∞ distance between the probability vectors of two
// distributions, taken an outcome at a time.
type Deviation struct {
	ta, tb int64
	max    float64
}

// NewDeviation starts the distance between distributions with totals ta
// and tb.
func NewDeviation(ta, tb int64) Deviation { return Deviation{ta: ta, tb: tb} }

// Add takes in one outcome, observed ca times in a and cb times in b.
func (d *Deviation) Add(ca, cb int64) {
	if x := math.Abs(Prob(ca, d.ta) - Prob(cb, d.tb)); x > d.max {
		d.max = x
	}
}

// Max returns the distance over the outcomes added so far.
func (d *Deviation) Max() float64 { return d.max }

// KL sums the add-one (Laplace) smoothed Kullback–Leibler divergences
// D(a ‖ b) and D(b ‖ a), an outcome at a time. The smoothing adds one
// observation of every outcome of the union, so both are finite even when
// the supports differ, and it needs the size of the union up front.
type KL struct {
	aTot, bTot float64
	ab, ba     float64
}

// NewKL starts the sums for distributions with totals ta and tb whose
// outcomes have a union of k.
func NewKL(k int, ta, tb int64) KL {
	return KL{aTot: float64(ta) + float64(k), bTot: float64(tb) + float64(k)}
}

// Add adds one outcome's terms to both sums: it was observed ca times in a
// and cb times in b.
func (d *KL) Add(ca, cb int64) {
	p := (float64(ca) + 1) / d.aTot
	q := (float64(cb) + 1) / d.bTot
	d.ab += p * math.Log(p/q)
	d.ba += q * math.Log(q/p)
}

// AddAB is Add for D(a ‖ b) alone, which then reads exactly as it would
// after Add.
func (d *KL) AddAB(ca, cb int64) {
	p := (float64(ca) + 1) / d.aTot
	q := (float64(cb) + 1) / d.bTot
	d.ab += p * math.Log(p/q)
}

// Sums returns D(a ‖ b) and D(b ‖ a) over the outcomes added so far, a tiny
// negative rounding residue read as 0.
func (d *KL) Sums() (ab, ba float64) {
	ab, ba = d.ab, d.ba
	if ab < 0 {
		ab = 0
	}
	if ba < 0 {
		ba = 0
	}
	return ab, ba
}

// MaxDeviation returns the L∞ distance between the probability vectors of m
// and other over the union of their outcomes. This is the deviation measure
// behind exception detection: a conditional distribution whose MaxDeviation
// from the node's base distribution exceeds ε is an exception.
func (m *Multinomial) MaxDeviation(other *Multinomial) float64 {
	a, b := m.Sorted(), other.Sorted()
	return a.MaxDeviation(&b)
}

// KLDivergence returns D(m ‖ other) (see KL). Lower values mean the
// distributions are more alike.
func (m *Multinomial) KLDivergence(other *Multinomial) float64 {
	a, b := m.Sorted(), other.Sorted()
	return a.KLDivergence(&b)
}

// KLBoth returns D(m ‖ other) and D(other ‖ m), each bit for bit what
// KLDivergence returns, from one merge-join that keeps both sums: both
// smooth over the same union of outcomes and add its terms in the same
// ascending order, so the two directions share every probability they
// compute.
func (m *Multinomial) KLBoth(other *Multinomial) (ab, ba float64) {
	a, b := m.Sorted(), other.Sorted()
	return a.KLBoth(&b)
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
