package stats_test

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"flowcube/internal/stats"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestBasicCounts(t *testing.T) {
	m := new(stats.Multinomial)
	if m.Total() != 0 || len(m.Outcomes()) != 0 {
		t.Fatalf("empty distribution not empty")
	}
	m.Observe(5)
	m.Observe(5)
	m.Observe(10)
	if m.Total() != 3 || len(m.Outcomes()) != 2 {
		t.Errorf("total=%d support=%d, want 3 and 2", m.Total(), len(m.Outcomes()))
	}
	if m.Count(5) != 2 || m.Count(10) != 1 || m.Count(99) != 0 {
		t.Errorf("counts wrong")
	}
	if !approx(m.Prob(5), 2.0/3) || !approx(m.Prob(99), 0) {
		t.Errorf("probs wrong")
	}
	if got := m.Outcomes(); len(got) != 2 || got[0] != 5 || got[1] != 10 {
		t.Errorf("outcomes = %v", got)
	}
}

func TestAddPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Add(-1) did not panic")
		}
	}()
	new(stats.Multinomial).Add(1, -1)
}

func TestZeroValueUsable(t *testing.T) {
	var m stats.Multinomial
	m.Observe(1)
	if m.Total() != 1 {
		t.Errorf("zero value not usable")
	}
}

func TestMergeAndClone(t *testing.T) {
	a := new(stats.Multinomial)
	a.Add(1, 2)
	a.Add(2, 3)
	b := new(stats.Multinomial)
	b.Add(2, 1)
	b.Add(3, 4)
	c := a.Clone()
	c.Merge(b)
	if c.Total() != 10 || c.Count(2) != 4 || c.Count(3) != 4 {
		t.Errorf("merge wrong: %s", c)
	}
	if a.Total() != 5 {
		t.Errorf("clone aliased the original")
	}
	c.Merge(nil) // must be a no-op
	if c.Total() != 10 {
		t.Errorf("Merge(nil) changed the distribution")
	}
}

// TestCopyIndependentThroughRegrow: a clone shares no backing array with its
// source through its own regrow or the source's.
func TestCopyIndependentThroughRegrow(t *testing.T) {
	pairs := func(m *stats.Multinomial) string {
		var b strings.Builder
		for _, v := range m.Outcomes() {
			fmt.Fprintf(&b, "%d:%d ", v, m.Count(v))
		}
		return fmt.Sprintf("%s/%d", b.String(), m.Total())
	}
	src := new(stats.Multinomial)
	src.Add(1, 2)
	src.Add(3, 1)
	clone := src.Clone()
	clone.Observe(0) // a regrow: Clone leaves no spare slot
	src.Observe(5)   // the source's regrow
	src.Observe(3)
	for _, c := range []struct {
		name string
		m    *stats.Multinomial
		want string
	}{
		{"source", src, "1:2 3:2 5:1 /5"},
		{"clone", clone, "0:1 1:2 3:1 /4"},
	} {
		if got := pairs(c.m); got != c.want {
			t.Errorf("%s = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestMean(t *testing.T) {
	m := new(stats.Multinomial)
	m.Add(5, 3)
	m.Add(10, 5)
	if !approx(m.Mean(), (5*3+10*5)/8.0) {
		t.Errorf("mean = %g", m.Mean())
	}
}

func TestDeviations(t *testing.T) {
	a := new(stats.Multinomial)
	a.Add(1, 1)
	a.Add(2, 1)
	b := new(stats.Multinomial)
	b.Add(1, 1)
	b.Add(3, 1)
	// probs: a={1:.5,2:.5}, b={1:.5,3:.5}: L∞=0.5
	if !approx(a.MaxDeviation(b), 0.5) {
		t.Errorf("MaxDeviation = %g, want 0.5", a.MaxDeviation(b))
	}
	if !approx(a.MaxDeviation(a), 0) {
		t.Errorf("self deviation nonzero")
	}
}

func TestKLDivergence(t *testing.T) {
	a := new(stats.Multinomial)
	a.Add(1, 50)
	a.Add(2, 50)
	b := new(stats.Multinomial)
	b.Add(1, 90)
	b.Add(2, 10)
	if d := a.KLDivergence(a); !approx(d, 0) {
		t.Errorf("self KL = %g", d)
	}
	if d := a.KLDivergence(b); d <= 0 {
		t.Errorf("KL to a different distribution = %g, want > 0", d)
	}
	// Disjoint supports stay finite thanks to smoothing.
	c := new(stats.Multinomial)
	c.Add(7, 100)
	if d := a.KLDivergence(c); math.IsInf(d, 0) || math.IsNaN(d) {
		t.Errorf("disjoint-support KL not finite: %g", d)
	}
	// Empty vs empty.
	e1, e2 := new(stats.Multinomial), new(stats.Multinomial)
	if d := e1.KLDivergence(e2); !approx(d, 0) {
		t.Errorf("empty KL = %g", d)
	}
}

func TestStringDeterministic(t *testing.T) {
	m := new(stats.Multinomial)
	m.Add(10, 5)
	m.Add(5, 3)
	if m.String() != "5:0.38 10:0.62" {
		t.Errorf("String = %q", m.String())
	}
}

// Property: probabilities always sum to 1 (within epsilon) for non-empty
// distributions, and every probability is within [0,1].
func TestProbSumProperty(t *testing.T) {
	f := func(obs []uint8) bool {
		if len(obs) == 0 {
			return true
		}
		m := new(stats.Multinomial)
		for _, o := range obs {
			m.Observe(int64(o % 16))
		}
		sum := 0.0
		for _, v := range m.Outcomes() {
			p := m.Prob(v)
			if p < 0 || p > 1 {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: KL divergence is non-negative (Gibbs' inequality holds for the
// smoothed estimates too).
func TestKLNonNegativeProperty(t *testing.T) {
	f := func(a, b []uint8) bool {
		ma, mb := new(stats.Multinomial), new(stats.Multinomial)
		for _, o := range a {
			ma.Observe(int64(o % 8))
		}
		for _, o := range b {
			mb.Observe(int64(o % 8))
		}
		return ma.KLDivergence(mb) >= 0 && mb.KLDivergence(ma) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Merge is equivalent to observing the union of samples.
func TestMergeEquivalenceProperty(t *testing.T) {
	f := func(a, b []uint8) bool {
		ma, mb, mu := new(stats.Multinomial), new(stats.Multinomial), new(stats.Multinomial)
		for _, o := range a {
			ma.Observe(int64(o))
			mu.Observe(int64(o))
		}
		for _, o := range b {
			mb.Observe(int64(o))
			mu.Observe(int64(o))
		}
		ma.Merge(mb)
		if ma.Total() != mu.Total() {
			return false
		}
		for _, v := range mu.Outcomes() {
			if ma.Count(v) != mu.Count(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: MaxDeviation is a symmetric pseudo-metric bounded by 1.
func TestMaxDeviationProperty(t *testing.T) {
	f := func(a, b []uint8) bool {
		ma, mb := new(stats.Multinomial), new(stats.Multinomial)
		for _, o := range a {
			ma.Observe(int64(o % 8))
		}
		for _, o := range b {
			mb.Observe(int64(o % 8))
		}
		d1, d2 := ma.MaxDeviation(mb), mb.MaxDeviation(ma)
		return approx(d1, d2) && d1 >= 0 && d1 <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
