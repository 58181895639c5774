package server

import (
	"testing"
	"time"
)

// TestRouteQuantilesUseNearestRank: p50 and p99 are the bucket bounds of
// the observations of rank ⌈q·n⌉, clamped to [1, n] — not ⌊q·n⌋, which
// reports the bucket below whenever q·n is fractional — and an overflow
// observation reports the recorded maximum.
func TestRouteQuantilesUseNearestRank(t *testing.T) {
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	repeat := func(n int, v float64) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = ms(v)
		}
		return out
	}
	for _, tc := range []struct {
		name     string
		obs      []time.Duration
		p50, p99 float64
	}{
		{"one", []time.Duration{ms(0.2)}, 0.25, 0.25},
		{"three", []time.Duration{ms(0.04), ms(0.09), ms(0.2)}, 0.1, 0.25},
		// Rank 75 is the last 0.04 ms request; rank ⌈148.5⌉ = 149 the first 0.3 ms one.
		{"150", append(repeat(148, 0.04), repeat(2, 0.3)...), 0.05, 0.5},
		{"overflow", []time.Duration{ms(0.04), ms(1500), ms(2500)}, 2500, 2500},
	} {
		var h RouteHistograms
		for _, d := range tc.obs {
			h.observe("/v1/cell", 200, d)
		}
		got := h.Snapshot()["/v1/cell"]
		if got.Count != int64(len(tc.obs)) || got.P50Ms != tc.p50 || got.P99Ms != tc.p99 {
			t.Errorf("%s: count %d, p50 %g, p99 %g; want %d, %g, %g", tc.name, got.Count, got.P50Ms, got.P99Ms, len(tc.obs), tc.p50, tc.p99)
		}
	}
}
