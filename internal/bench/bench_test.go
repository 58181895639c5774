package bench_test

import (
	"strings"
	"testing"

	"flowcube/internal/bench"
)

// tiny runs the harness at a minuscule scale so the tests validate the
// runners' wiring and invariants, not their timing. The support floor
// keeps percentage supports from rounding down to a handful of paths,
// which would explode the pattern space at this scale.
func tiny() bench.Options {
	return bench.Options{Scale: 0.005, Seed: 1, SupportFloor: 25} // 500 paths at the 100k baseline
}

func TestFig6Shape(t *testing.T) {
	opts := tiny()
	opts.Algorithms = []string{bench.AlgoShared, bench.AlgoCubing}
	fig := bench.Fig6(opts)
	if len(fig.Series) != 2 {
		t.Fatalf("fig6 has %d series, want 2", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.Points) != 6 {
			t.Fatalf("series %s has %d points, want 6", s.Algorithm, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Seconds <= 0 || p.Aborted {
				t.Errorf("series %s point X=%g invalid: %+v", s.Algorithm, p.X, p)
			}
		}
		// X must be the scaled database sizes, increasing.
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].X <= s.Points[i-1].X {
				t.Errorf("series %s X not increasing", s.Algorithm)
			}
		}
	}
	// Shared and cubing find the same number of frequent patterns? Not in
	// general (cubing double-counts per cell) — but both must find some.
	for _, s := range fig.Series {
		if s.Points[0].Patterns == 0 {
			t.Errorf("series %s found no patterns", s.Algorithm)
		}
	}
}

func TestFig7SupportsDecreasing(t *testing.T) {
	opts := tiny()
	opts.Algorithms = []string{bench.AlgoShared}
	fig := bench.Fig7(opts)
	s := fig.Series[0]
	if len(s.Points) != 6 {
		t.Fatalf("fig7 has %d points", len(s.Points))
	}
	// Higher support ⇒ no more patterns than lower support.
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i].Patterns > s.Points[i-1].Patterns {
			t.Errorf("patterns increased with support: %v", s.Points)
		}
	}
}

func TestFig11CandidateDominance(t *testing.T) {
	fig := bench.Fig11(tiny())
	var shared, basic *bench.Series
	for i := range fig.Series {
		switch fig.Series[i].Algorithm {
		case bench.AlgoShared:
			shared = &fig.Series[i]
		case bench.AlgoBasic:
			basic = &fig.Series[i]
		}
	}
	if shared == nil || basic == nil {
		t.Fatal("fig11 missing a series")
	}
	sharedTotal, basicTotal := 0, 0
	for i := range shared.Points {
		sharedTotal += shared.Points[i].Patterns
	}
	for i := range basic.Points {
		basicTotal += basic.Points[i].Patterns
	}
	if sharedTotal >= basicTotal {
		t.Errorf("shared counted %d candidates, basic %d: pruning has no effect", sharedTotal, basicTotal)
	}
	// Shared's longest counted length must not exceed basic's.
	last := func(s *bench.Series) int {
		n := 0
		for i, p := range s.Points {
			if p.Patterns > 0 {
				n = i + 1
			}
		}
		return n
	}
	if last(shared) > last(basic) {
		t.Errorf("shared counted longer patterns (%d) than basic (%d)", last(shared), last(basic))
	}
}

func TestWriteTableRendering(t *testing.T) {
	opts := tiny()
	opts.Algorithms = []string{bench.AlgoShared}
	fig := bench.Fig9(opts)
	var sb strings.Builder
	fig.WriteTable(&sb)
	out := sb.String()
	for _, want := range []string{"# Figure 9", "dataset", "shared", "a", "b", "c"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

// TestWriteTableCoordinates: sweep coordinates print with four significant
// digits and never in exponent form — database sizes from 10 000 paths up
// used to read 1e+04.
func TestWriteTableCoordinates(t *testing.T) {
	for _, c := range []struct {
		x    float64
		want string
	}{
		{10000, "10000"},
		{1000000, "1000000"},
		{0.009 * 100, "0.9"},
	} {
		fig := bench.Figure{ID: "0", XLabel: "x", Series: []bench.Series{{Algorithm: "shared", Points: []bench.Point{{X: c.x}}}}}
		var sb strings.Builder
		fig.WriteTable(&sb)
		rows := strings.Split(strings.TrimSpace(sb.String()), "\n")
		if got := strings.Fields(rows[len(rows)-1])[0]; got != c.want {
			t.Errorf("coordinate %v printed as %q, want %q", c.x, got, c.want)
		}
	}
}

func TestAblationPruningShape(t *testing.T) {
	rows := bench.AblationPruning(tiny())
	if len(rows) != 5 {
		t.Fatalf("pruning ablation has %d rows, want 5", len(rows))
	}
	all := rows[0]
	none := rows[len(rows)-1]
	if !strings.Contains(all.Name, "shared") || !strings.Contains(none.Name, "basic") {
		t.Fatalf("unexpected row order: %v", rows)
	}
	if !none.Aborted && all.Candidates >= none.Candidates {
		t.Errorf("full pruning (%d candidates) should beat none (%d)", all.Candidates, none.Candidates)
	}
	// Each single-disabled variant counts at least as many candidates as
	// the fully-pruned run.
	for _, r := range rows[1:4] {
		if !r.Aborted && r.Candidates < all.Candidates {
			t.Errorf("variant %q counted fewer candidates (%d) than full pruning (%d)",
				r.Name, r.Candidates, all.Candidates)
		}
	}
}

func TestAblationMergeAgreesAndRuns(t *testing.T) {
	rows := bench.AblationMerge(tiny())
	if len(rows) != 2 {
		t.Fatalf("merge ablation has %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Seconds < 0 {
			t.Errorf("negative time in %v", r)
		}
	}
}

func TestAblationCountingAgrees(t *testing.T) {
	rows := bench.AblationCounting(tiny())
	if len(rows) != 2 || rows[0].Candidates != rows[1].Candidates {
		t.Fatalf("counting ablation rows inconsistent: %v", rows)
	}
}

func TestAblationRedundancyMonotone(t *testing.T) {
	rows := bench.AblationRedundancy(tiny())
	// Retained cells must be non-increasing as tau falls? tau rises ⇒
	// similarity bar rises ⇒ fewer cells redundant ⇒ more retained.
	for i := 1; i < len(rows); i++ {
		if rows[i].Cells < rows[i-1].Cells {
			t.Errorf("retained cells decreased as tau rose: %v", rows)
		}
	}
}

func TestAblationIcebergMonotone(t *testing.T) {
	rows := bench.AblationIceberg(tiny())
	for i := 1; i < len(rows); i++ {
		if rows[i].Cells > rows[i-1].Cells {
			t.Errorf("materialized cells increased with delta: %v", rows)
		}
	}
}

func TestWriteRowsRendering(t *testing.T) {
	var sb strings.Builder
	bench.WriteRows(&sb, "test", []bench.AblationRow{
		{Name: "x", Seconds: 0.5, Candidates: 10},
		{Name: "y", Aborted: true},
	})
	out := sb.String()
	if !strings.Contains(out, "aborted") || !strings.Contains(out, "0.500") {
		t.Errorf("rows output unexpected:\n%s", out)
	}
}

func TestAblationParallelConsistent(t *testing.T) {
	rows := bench.AblationParallel(tiny())
	if len(rows) != 4 {
		t.Fatalf("parallel ablation has %d rows", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Candidates != rows[0].Candidates {
			t.Errorf("worker count changed results: %v", rows)
		}
	}
}
