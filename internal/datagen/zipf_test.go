package datagen

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestZipfPanicsOnBadArgs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		n     int
		alpha float64
	}{{0, 1}, {-3, 1}, {5, -0.1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newZipf(%d, %g) did not panic", c.n, c.alpha)
				}
			}()
			newZipf(rng, c.n, c.alpha)
		}()
	}
}

func TestZipfUniformWhenAlphaZero(t *testing.T) {
	z := newZipf(rand.New(rand.NewSource(42)), 4, 0)
	for k, c := range z.cdf {
		if want := float64(k+1) / 4; math.Abs(c-want) > 1e-12 {
			t.Errorf("cdf[%d] = %g, want %g", k, c, want)
		}
	}
}

func TestZipfProbMass(t *testing.T) {
	z := newZipf(rand.New(rand.NewSource(7)), 10, 1.2)
	prev := 0.0
	for k, c := range z.cdf {
		if c <= prev {
			t.Errorf("P(%d) = %g, want > 0", k, c-prev)
		}
		prev = c
	}
	if math.Abs(prev-1) > 1e-9 {
		t.Errorf("probabilities sum to %g", prev)
	}
}

func TestZipfSkewMonotone(t *testing.T) {
	z := newZipf(rand.New(rand.NewSource(7)), 8, 1.0)
	for k := 2; k < len(z.cdf); k++ {
		if p, q := z.cdf[k]-z.cdf[k-1], z.cdf[k-1]-z.cdf[k-2]; p > q {
			t.Errorf("P(%d)=%g > P(%d)=%g; Zipf must be non-increasing", k, p, k-1, q)
		}
	}
}

// TestZipfEmpiricalMatchesAnalytic holds the draws to 1/(k+1)^alpha
// normalized, computed here rather than read back from the sampler's table.
func TestZipfEmpiricalMatchesAnalytic(t *testing.T) {
	const (
		domain = 5
		alpha  = 0.8
		n      = 200000
	)
	z := newZipf(rand.New(rand.NewSource(99)), domain, alpha)
	counts := make([]int, domain)
	for i := 0; i < n; i++ {
		counts[z.next()]++
	}
	norm := 0.0
	for k := 0; k < domain; k++ {
		norm += math.Pow(float64(k+1), -alpha)
	}
	for k := 0; k < domain; k++ {
		got := float64(counts[k]) / n
		want := math.Pow(float64(k+1), -alpha) / norm
		if math.Abs(got-want) > 0.01 {
			t.Errorf("empirical P(%d) = %g, analytic %g", k, got, want)
		}
	}
}

func TestZipfDeterministicBySeed(t *testing.T) {
	a := newZipf(rand.New(rand.NewSource(5)), 20, 1.1)
	b := newZipf(rand.New(rand.NewSource(5)), 20, 1.1)
	for i := 0; i < 1000; i++ {
		if a.next() != b.next() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

// Property: Next always lands in [0, N).
func TestZipfNextInRangeProperty(t *testing.T) {
	f := func(seed int64, n uint8, alphaTenths uint8) bool {
		domain := int(n%50) + 1
		alpha := float64(alphaTenths%30) / 10
		z := newZipf(rand.New(rand.NewSource(seed)), domain, alpha)
		for i := 0; i < 100; i++ {
			k := z.next()
			if k < 0 || k >= domain {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
