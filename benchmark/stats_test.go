package main

import "testing"

func TestP99NeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	// 1000 samples leave exactly ten beyond the 990th: the smallest sample
	// that supports a p99.
	if v, isP99 := p99OrMedian(ramp(1000)); !isP99 || v != 990 {
		t.Errorf("1000 samples: got %v (p99 %v), want 990 as p99", v, isP99)
	}
	if v, isP99 := p99OrMedian(ramp(999)); isP99 || v != 500 {
		t.Errorf("999 samples: got %v (p99 %v), want the median 500", v, isP99)
	}
	if v, isP99 := p99OrMedian(ramp(3)); isP99 || v != 2 {
		t.Errorf("3 samples: got %v (p99 %v), want the median 2", v, isP99)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("got %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("got %v %v %v, want 1 2 4", q1, q2, q3)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestQuietestTakesTheBusiestSecond(t *testing.T) {
	lr := loopResult{bySecond: [][]float64{{9, 9}, {1, 2, 3}, {5}}}
	if n, p50 := lr.quietest(); n != 3 || p50 != 2 {
		t.Errorf("got %v answers at a median of %v ms, want the second second's 3 at 2 ms", n, p50)
	}
}
