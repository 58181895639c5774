package stats_test

import (
	"fmt"
	"math/rand"
	"testing"

	"flowcube/internal/stats"
)

// benchSupports spans the regimes of the sorted-slice layout: one outcome,
// the linear-probe limit, binary search, and a support no flowgraph node
// has — where inserting into a slice is quadratic and a map would win.
var benchSupports = []int{1, 8, 64, 1024}

var benchSink float64

// BenchmarkKLDivergence compares two distributions that share every second
// outcome, so the merge-join takes all three of its branches.
func BenchmarkKLDivergence(b *testing.B) {
	for _, support := range benchSupports {
		x, y := new(stats.Multinomial), new(stats.Multinomial)
		for i := 0; i < support; i++ {
			x.Add(2*int64(i), int64(i%5)+1)
			y.Add(3*int64(i), int64(i%3)+1)
		}
		b.Run(fmt.Sprint(support), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink += x.KLDivergence(y)
			}
		})
	}
}

// BenchmarkAdd builds a distribution of the given support from nothing,
// outcomes arriving in shuffled order, then observes each outcome once
// more: one insert and one hit per outcome per iteration.
func BenchmarkAdd(b *testing.B) {
	for _, support := range benchSupports {
		order := rand.New(rand.NewSource(1)).Perm(support)
		b.Run(fmt.Sprint(support), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var m stats.Multinomial
				for _, v := range order {
					m.Add(int64(v), 1)
				}
				for _, v := range order {
					m.Add(int64(v), 1)
				}
				benchSink += float64(m.Total())
			}
		})
	}
}
