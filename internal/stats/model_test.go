package stats_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"flowcube/internal/stats"
)

// refDist is the reference model of a Multinomial: the map-backed
// implementation the sorted-slice one replaced, kept here verbatim where it
// decides a float — every sum walks the sorted union of outcomes and uses
// the same expressions — so that "equal" below can mean bit for bit.
type refDist struct {
	counts map[int64]int64
	total  int64
}

func newRef() *refDist { return &refDist{counts: map[int64]int64{}} }

func (r *refDist) add(v, n int64) {
	r.counts[v] += n
	r.total += n
}

func (r *refDist) merge(o *refDist) {
	for v, n := range o.counts {
		r.add(v, n)
	}
}

func (r *refDist) outcomes() []int64 {
	out := make([]int64, 0, len(r.counts))
	for v := range r.counts {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (r *refDist) prob(v int64) float64 {
	if r.total == 0 {
		return 0
	}
	return float64(r.counts[v]) / float64(r.total)
}

func (r *refDist) union(o *refDist) []int64 {
	u := newRef()
	for v := range r.counts {
		u.counts[v] = 0
	}
	for v := range o.counts {
		u.counts[v] = 0
	}
	return u.outcomes()
}

func (r *refDist) maxDeviation(o *refDist) float64 {
	max := 0.0
	for _, v := range r.union(o) {
		if d := math.Abs(r.prob(v) - o.prob(v)); d > max {
			max = d
		}
	}
	return max
}

func (r *refDist) kl(o *refDist) float64 {
	outcomes := r.union(o)
	k := float64(len(outcomes))
	if k == 0 {
		return 0
	}
	mTot := float64(r.total) + k
	oTot := float64(o.total) + k
	d := 0.0
	for _, v := range outcomes {
		p := (float64(r.counts[v]) + 1) / mTot
		q := (float64(o.counts[v]) + 1) / oTot
		d += p * math.Log(p/q)
	}
	if d < 0 {
		return 0
	}
	return d
}

func (r *refDist) mean() float64 {
	if r.total == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range r.outcomes() {
		sum += float64(v) * float64(r.counts[v])
	}
	return sum / float64(r.total)
}

// pair is a Multinomial and the model it must agree with.
type pair struct {
	m   *stats.Multinomial
	ref *refDist
}

func (p pair) check(t *testing.T, step string) {
	t.Helper()
	want := p.ref.outcomes()
	got := p.m.Outcomes()
	if len(got) != len(want) || p.m.Total() != p.ref.total {
		t.Fatalf("%s: outcomes %v total %d, want %v %d",
			step, got, p.m.Total(), want, p.ref.total)
	}
	for i, v := range want {
		if got[i] != v || p.m.Count(v) != p.ref.counts[v] {
			t.Fatalf("%s: outcome %d is %d with count %d, want %d with %d",
				step, i, got[i], p.m.Count(got[i]), v, p.ref.counts[v])
		}
	}
	if p.m.Count(-7) != 0 || p.m.Count(1<<40) != 0 {
		t.Fatalf("%s: unobserved outcome has a count", step)
	}
	var outs, counts []int64
	outs, counts = p.m.AppendSorted(outs, counts)
	for i, v := range want {
		if outs[i] != v || counts[i] != p.ref.counts[v] {
			t.Fatalf("%s: AppendSorted pair %d = (%d,%d), want (%d,%d)", step, i, outs[i], counts[i], v, p.ref.counts[v])
		}
	}
}

func sameBits(t *testing.T, step, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: %s = %v (%#x), model says %v (%#x)",
			step, what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func checkFloats(t *testing.T, step string, a, b pair) {
	t.Helper()
	sameBits(t, step, "KLDivergence", a.m.KLDivergence(b.m), a.ref.kl(b.ref))
	sameBits(t, step, "MaxDeviation", a.m.MaxDeviation(b.m), a.ref.maxDeviation(b.ref))
	sameBits(t, step, "Mean", a.m.Mean(), a.ref.mean())
}

// TestKLBothMatchesTwoCalls: KLBoth is both directions of KLDivergence, bit
// for bit, including against an empty side, between two empty sides, and
// against outcomes observed with no mass (which the smoothing still
// counts).
func TestKLBothMatchesTwoCalls(t *testing.T) {
	massless := new(stats.Multinomial)
	massless.Add(4, 0)
	massless.Add(7, 0)
	dists := []*stats.Multinomial{
		new(stats.Multinomial), massless,
		spread(1, 0), spread(3, 0), spread(3, 1), spread(12, 2), spread(100, 0),
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		m := new(stats.Multinomial)
		for j := rng.Intn(15); j > 0; j-- {
			m.Add(rng.Int63n(20)-1, rng.Int63n(1000))
		}
		dists = append(dists, m)
	}
	for i, a := range dists {
		for j, b := range dists {
			ab, ba := a.KLBoth(b)
			where := fmt.Sprintf("dists %d and %d", i, j)
			sameBits(t, where, "KLBoth (forward)", ab, a.KLDivergence(b))
			sameBits(t, where, "KLBoth (backward)", ba, b.KLDivergence(a))
		}
	}
}

// TestMultinomialMatchesMapModel drives random Add / Merge / InitSorted /
// Clone sequences through two distributions and the map model side by side.
// Outcome domains of 6 and of 40 keep one distribution under the linear
// probe's limit and push the other through the binary search; Add(v, 0)
// makes observed outcomes with no mass, which Support and the smoothing
// term of KLDivergence count.
func TestMultinomialMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ps := [2]pair{{new(stats.Multinomial), newRef()}, {&stats.Multinomial{}, newRef()}}
		domain := [2]int64{6, 40}
		for step := 0; step < 120; step++ {
			i := rng.Intn(2)
			p, other := &ps[i], &ps[1-i]
			name := ""
			switch op := rng.Intn(10); {
			case op < 6:
				v := rng.Int63n(domain[i]) - 2 // includes Terminate-like negatives
				n := int64(0)
				if rng.Intn(5) > 0 {
					n = rng.Int63n(9)
				}
				p.m.Add(v, n)
				p.ref.add(v, n)
				name = "Add"
			case op < 8:
				p.m.Merge(other.m)
				p.ref.merge(other.ref)
				name = "Merge"
			case op < 9:
				// Re-initialise from the other's columns: a snapshot decode.
				outs, counts := other.m.AppendSorted(nil, nil)
				if err := p.m.InitSorted(outs, counts); err != nil {
					t.Fatalf("seed %d step %d: InitSorted: %v", seed, step, err)
				}
				p.ref = newRef()
				p.ref.merge(other.ref)
				if len(outs) > 0 {
					outs[0], counts[0] = 1<<50, 1<<50 // the columns were copied, not retained
				}
				name = "InitSorted"
			default:
				p.m = p.m.Clone()
				name = "Clone"
			}
			where := fmt.Sprintf("%s at seed %d step %d", name, seed, step)
			p.check(t, where)
			other.check(t, where)
			checkFloats(t, where, ps[0], ps[1])
			checkFloats(t, where, ps[1], ps[0])
			checkFloats(t, where, ps[i], ps[i])
		}
	}
}

// TestInitSortedRejects pins the three error cases, and that a rejected
// call leaves an empty distribution rather than half of the input.
func TestInitSortedRejects(t *testing.T) {
	cases := []struct {
		name           string
		outcomes, cnts []int64
	}{
		{"length mismatch", []int64{1, 2}, []int64{1}},
		{"not strictly increasing", []int64{1, 3, 3}, []int64{1, 1, 1}},
		{"negative count", []int64{1, 2}, []int64{4, -1}},
	}
	for _, c := range cases {
		m := new(stats.Multinomial)
		m.Add(9, 9)
		if err := m.InitSorted(c.outcomes, c.cnts); err == nil {
			t.Errorf("%s: InitSorted accepted %v / %v", c.name, c.outcomes, c.cnts)
		}
		if len(m.Outcomes()) != 0 || m.Total() != 0 {
			t.Errorf("%s: rejected InitSorted left support %d total %d", c.name, len(m.Outcomes()), m.Total())
		}
	}
}

// TestKernelDoesNotAllocate: the deviation and divergence sums and the
// point lookups run once per node per comparison; they must stay off the
// heap, below and above the linear-probe limit.
func TestKernelDoesNotAllocate(t *testing.T) {
	for _, support := range []int{3, 100} {
		a, b := spread(support, 0), spread(support, 1)
		var sink float64
		for name, fn := range map[string]func(){
			"KLDivergence": func() { sink += a.KLDivergence(b) },
			"KLBoth":       func() { ab, ba := a.KLBoth(b); sink += ab + ba },
			"MaxDeviation": func() { sink += a.MaxDeviation(b) },
			"Prob":         func() { sink += a.Prob(int64(support)) },
		} {
			if n := testing.AllocsPerRun(50, fn); n != 0 {
				t.Errorf("%s at support %d allocates %v times per call", name, support, n)
			}
		}
		_ = sink
	}
}

// spread returns a distribution over support outcomes 3i+shift, i.e. two
// of them with different shifts overlap in no outcome but interleave.
func spread(support int, shift int64) *stats.Multinomial {
	m := new(stats.Multinomial)
	for i := 0; i < support; i++ {
		m.Add(3*int64(i)+shift, int64(i%7)+1)
	}
	return m
}
