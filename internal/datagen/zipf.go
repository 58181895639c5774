package datagen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// zipf is a deterministic sampler of ranks in [0, n) with P(k) proportional
// to 1/(k+1)^alpha; alpha = 0 degenerates to the uniform distribution.
//
// The FlowCube paper (§6.1) draws the values for concept-hierarchy levels,
// stage locations and stage durations from a Zipf distribution with a
// varying skew parameter alpha to simulate different degrees of data skew.
// The standard library's math/rand Zipf requires s > 1; the paper sweeps
// alpha through values at and below 1, so this is the classic finite-domain
// Zipf by inverse-transform sampling over the exact CDF.
type zipf struct {
	cdf []float64
	rng *rand.Rand
}

// newZipf returns a sampler over [0, n) with skew alpha >= 0, driven by the
// given source. It panics if n <= 0 or alpha < 0, which indicate programmer
// error rather than runtime conditions.
func newZipf(rng *rand.Rand, n int, alpha float64) *zipf {
	if n <= 0 {
		panic(fmt.Sprintf("zipf: domain size must be positive, got %d", n))
	}
	if alpha < 0 {
		panic(fmt.Sprintf("zipf: alpha must be non-negative, got %g", alpha))
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += math.Pow(float64(k+1), -alpha)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf: cdf, rng: rng}
}

// next draws one rank in [0, n).
func (z *zipf) next() int {
	// sort.SearchFloat64s finds the first index with cdf[i] >= u.
	i := sort.SearchFloat64s(z.cdf, z.rng.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}
