// Package bench implements the paper's §6 experimental evaluation: one
// runner per figure (6–11) that regenerates the same series the paper
// reports, plus ablation experiments for the design choices DESIGN.md calls
// out. The cmd/flowbench binary is a thin wrapper over this package.
//
// Absolute times will differ from the paper's 2006 C++/Pentium-IV testbed;
// what the runners reproduce is the shape: who wins, by roughly what
// factor, and where candidate explosions stop the Basic baseline.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"flowcube/internal/cubing"
	"flowcube/internal/datagen"
	"flowcube/internal/mining"
	"flowcube/internal/transact"
)

// Algorithm names used in series.
const (
	AlgoShared = "shared"
	AlgoCubing = "cubing"
	AlgoBasic  = "basic"
)

// Point is one measurement of a sweep.
type Point struct {
	// X is the sweep coordinate (database size, support %, ...).
	X float64
	// Label overrides the numeric X in output when non-empty (e.g. the
	// item-density datasets "a", "b", "c").
	Label string
	// Seconds is the end-to-end runtime: transaction transformation plus
	// mining, from the raw path database.
	Seconds float64
	// Aborted marks runs stopped by the candidate-explosion guard — the
	// analogue of the paper's "could not run basic" data points.
	Aborted bool
	// Patterns is the number of frequent itemsets found (0 for aborted).
	Patterns int
}

// Series is one algorithm's measurements across a sweep.
type Series struct {
	Algorithm string
	Points    []Point
}

// Figure is a regenerated paper figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	Series []Series
}

// WriteTable renders the figure as an aligned text table, one row per X.
func (f Figure) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "# Figure %s — %s\n", f.ID, f.Title)
	fmt.Fprintf(w, "%-14s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, " %14s", s.Algorithm)
	}
	fmt.Fprintln(w)
	if len(f.Series) == 0 {
		return
	}
	for i := range f.Series[0].Points {
		p := f.Series[0].Points[i]
		label := p.Label
		if label == "" {
			label = trimFloat(p.X)
		}
		fmt.Fprintf(w, "%-14s", label)
		for _, s := range f.Series {
			if i >= len(s.Points) {
				fmt.Fprintf(w, " %14s", "-")
				continue
			}
			q := s.Points[i]
			if q.Aborted {
				fmt.Fprintf(w, " %14s", "aborted")
			} else {
				fmt.Fprintf(w, " %13.3fs", q.Seconds)
			}
		}
		fmt.Fprintln(w)
	}
}

// trimFloat prints a sweep coordinate with four significant digits and no
// exponent: 0.009*100 reads 0.9, not 0.8999999999999999, and a million paths
// reads 1000000, not 1e+06.
func trimFloat(x float64) string {
	rounded, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'e', 3, 64), 64) // 'e' output always parses
	return strconv.FormatFloat(rounded, 'f', -1, 64)
}

// Options configures the figure runners.
type Options struct {
	// Scale multiplies the paper's database sizes. The paper sweeps
	// 100,000–1,000,000 paths; Scale=0.1 sweeps 10,000–100,000. Values
	// <= 0 default to 0.1.
	Scale float64
	// Seed drives the synthetic generator.
	Seed int64
	// Algorithms restricts which algorithms run; nil runs every algorithm
	// a figure compares.
	Algorithms []string
	// CandidateLimit caps per-length candidates for the Basic baseline
	// (and only it); 0 defaults to 2,000,000. Exceeding it reports the
	// point as aborted, mirroring the paper's out-of-memory runs.
	CandidateLimit int
	// SupportFloor bounds the absolute iceberg count from below. At
	// heavily scaled-down sizes a percentage support rounds to a handful
	// of paths and the pattern space explodes combinatorially; smoke runs
	// set a floor to stay meaningful. 0 means no floor.
	SupportFloor int64
	// Progress, when non-nil, receives one line per completed point.
	Progress io.Writer
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 0.1
	}
	return o.Scale
}

func (o Options) candidateLimit() int {
	if o.CandidateLimit <= 0 {
		return 2_000_000
	}
	return o.CandidateLimit
}

func (o Options) wants(algo string) bool {
	if len(o.Algorithms) == 0 {
		return true
	}
	for _, a := range o.Algorithms {
		if a == algo {
			return true
		}
	}
	return false
}

func (o Options) progress(format string, args ...any) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format+"\n", args...)
	}
}

// minCount resolves the absolute iceberg threshold for a dataset,
// honouring the floor.
func (o Options) minCount(minSupport float64, n int) int64 {
	c, err := mining.ResolveMinCount(mining.Options{MinSupport: minSupport}, n)
	if err != nil {
		panic(fmt.Sprintf("bench: bad support %g: %v", minSupport, err))
	}
	if c < o.SupportFloor {
		c = o.SupportFloor
	}
	return c
}

// runOne executes one algorithm end to end on a dataset: the timer covers
// symbol-table construction, transaction transformation and mining, since
// the paper's measured runtimes cover the whole materialization pass.
func (o Options) runOne(ds *datagen.Dataset, algo string, minSupport float64) Point {
	minCount := o.minCount(minSupport, ds.DB.Len())
	start := time.Now()
	syms := transact.MustNewSymbols(ds.Schema, ds.DefaultPlan())
	var patterns int
	aborted := false
	switch algo {
	case AlgoShared, AlgoBasic:
		opts := mining.SharedOptions(minSupport)
		if algo == AlgoBasic {
			opts = mining.BasicOptions(minSupport)
			opts.CandidateLimit = o.candidateLimit()
		}
		opts.MinCount = minCount
		txs := syms.Encode(ds.DB)
		res, err := mining.Mine(syms, txs, opts)
		if err != nil {
			panic(fmt.Sprintf("bench: mining failed: %v", err))
		}
		aborted = res.Aborted
		if !aborted {
			patterns = res.NumFrequent()
		}
	case AlgoCubing:
		res, err := cubing.Run(ds.DB, syms, mining.Options{MinCount: minCount})
		if err != nil {
			panic(fmt.Sprintf("bench: cubing failed: %v", err))
		}
		for _, c := range res.Cells {
			for _, l := range c.Segments {
				patterns += l.Len()
			}
		}
	default:
		panic(fmt.Sprintf("bench: unknown algorithm %q", algo))
	}
	return Point{Seconds: time.Since(start).Seconds(), Aborted: aborted, Patterns: patterns}
}

func (o Options) baseConfig() datagen.Config {
	cfg := datagen.Default()
	cfg.Seed = o.Seed
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg
}

// Fig6 — runtime vs. path database size (paper: 100k–1M paths, δ=1%, d=5).
func Fig6(o Options) Figure {
	fig := Figure{ID: "6", Title: "runtime vs database size (δ=1%, d=5)", XLabel: "paths"}
	sizes := []int{100_000, 200_000, 400_000, 600_000, 800_000, 1_000_000}
	algos := []string{AlgoShared, AlgoCubing, AlgoBasic}
	series := map[string]*Series{}
	for _, a := range algos {
		if o.wants(a) {
			series[a] = &Series{Algorithm: a}
		}
	}
	for _, n := range sizes {
		cfg := o.baseConfig()
		cfg.NumPaths = int(float64(n) * o.scale())
		ds := datagen.MustGenerate(cfg)
		for _, a := range algos {
			s := series[a]
			if s == nil {
				continue
			}
			// The paper could not run Basic past 200k paths; the guard
			// reproduces that as "aborted" without exhausting memory.
			p := o.runOne(ds, a, 0.01)
			p.X = float64(cfg.NumPaths)
			s.Points = append(s.Points, p)
			o.progress("fig6 %s N=%d: %.2fs aborted=%v", a, cfg.NumPaths, p.Seconds, p.Aborted)
		}
	}
	for _, a := range algos {
		if s := series[a]; s != nil {
			fig.Series = append(fig.Series, *s)
		}
	}
	return fig
}

// Fig7 — runtime vs. minimum support (paper: 0.3%–2.0%, N=100k, d=5).
func Fig7(o Options) Figure {
	fig := Figure{ID: "7", Title: "runtime vs minimum support (N=100k·scale, d=5)", XLabel: "support %"}
	supports := []float64{0.003, 0.006, 0.009, 0.012, 0.016, 0.020}
	cfg := o.baseConfig()
	cfg.NumPaths = int(100_000 * o.scale())
	ds := datagen.MustGenerate(cfg)
	for _, a := range []string{AlgoShared, AlgoCubing, AlgoBasic} {
		if !o.wants(a) {
			continue
		}
		s := Series{Algorithm: a}
		for _, sup := range supports {
			p := o.runOne(ds, a, sup)
			p.X = sup * 100
			s.Points = append(s.Points, p)
			o.progress("fig7 %s δ=%.2f%%: %.2fs aborted=%v", a, sup*100, p.Seconds, p.Aborted)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// Fig8 — runtime vs. number of path-independent dimensions (paper: 2–10,
// N=100k, δ=1%, sparse data).
func Fig8(o Options) Figure {
	fig := Figure{ID: "8", Title: "runtime vs dimensions (N=100k·scale, δ=1%, sparse)", XLabel: "dimensions"}
	dims := []int{2, 4, 6, 8, 10}
	for _, a := range []string{AlgoShared, AlgoCubing, AlgoBasic} {
		if !o.wants(a) {
			continue
		}
		s := Series{Algorithm: a}
		for _, d := range dims {
			cfg := o.baseConfig()
			cfg.NumPaths = int(100_000 * o.scale())
			cfg.NumDims = d
			// The paper keeps these datasets sparse so high-dimension
			// cuboids do not explode: the densest per-level domain.
			cfg.DimFanouts = [3]int{5, 5, 10}
			cfg.DimSkew = 0.2
			ds := datagen.MustGenerate(cfg)
			p := o.runOne(ds, a, 0.01)
			p.X = float64(d)
			s.Points = append(s.Points, p)
			o.progress("fig8 %s d=%d: %.2fs aborted=%v", a, d, p.Seconds, p.Aborted)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// Fig9 — runtime vs. item-dimension density (paper datasets a/b/c with
// 2,2,5 / 4,4,6 / 5,5,10 distinct values per level).
func Fig9(o Options) Figure {
	fig := Figure{ID: "9", Title: "runtime vs item density (N=100k·scale, δ=1%, d=5)", XLabel: "dataset"}
	datasets := []struct {
		label   string
		fanouts [3]int
	}{
		{"a", [3]int{2, 2, 5}},
		{"b", [3]int{4, 4, 6}},
		{"c", [3]int{5, 5, 10}},
	}
	for _, a := range []string{AlgoShared, AlgoCubing, AlgoBasic} {
		if !o.wants(a) {
			continue
		}
		s := Series{Algorithm: a}
		for i, d := range datasets {
			cfg := o.baseConfig()
			cfg.NumPaths = int(100_000 * o.scale())
			cfg.DimFanouts = d.fanouts
			ds := datagen.MustGenerate(cfg)
			p := o.runOne(ds, a, 0.01)
			p.X = float64(i)
			p.Label = d.label
			s.Points = append(s.Points, p)
			o.progress("fig9 %s dataset=%s: %.2fs aborted=%v", a, d.label, p.Seconds, p.Aborted)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// Fig10 — runtime vs. path density (paper: 10–150 distinct location
// sequences; fewer sequences = denser paths). The paper could not run
// Basic on this experiment at all.
func Fig10(o Options) Figure {
	fig := Figure{ID: "10", Title: "runtime vs path density (N=100k·scale, δ=1%, d=5)", XLabel: "sequences"}
	counts := []int{10, 25, 50, 100, 150}
	for _, a := range []string{AlgoShared, AlgoCubing, AlgoBasic} {
		if !o.wants(a) {
			continue
		}
		s := Series{Algorithm: a}
		for _, n := range counts {
			cfg := o.baseConfig()
			cfg.NumPaths = int(100_000 * o.scale())
			cfg.NumSequences = n
			ds := datagen.MustGenerate(cfg)
			p := o.runOne(ds, a, 0.01)
			p.X = float64(n)
			s.Points = append(s.Points, p)
			o.progress("fig10 %s seqs=%d: %.2fs aborted=%v", a, n, p.Seconds, p.Aborted)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// Fig11 — pruning power: candidates counted per pattern length, Basic vs
// Shared (paper: Shared stops at length 8, Basic reaches 12).
func Fig11(o Options) Figure {
	fig := Figure{ID: "11", Title: "candidates counted per pattern length (N=100k·scale, δ=1%, d=5)", XLabel: "length"}
	cfg := o.baseConfig()
	cfg.NumPaths = int(100_000 * o.scale())
	ds := datagen.MustGenerate(cfg)
	syms := transact.MustNewSymbols(ds.Schema, ds.DefaultPlan())
	txs := syms.Encode(ds.DB)

	minCount := o.minCount(0.01, ds.DB.Len())
	runs := []struct {
		algo string
		opts mining.Options
	}{
		{AlgoShared, func() mining.Options {
			s := mining.SharedOptions(0.01)
			s.MinCount = minCount
			return s
		}()},
		{AlgoBasic, func() mining.Options {
			b := mining.BasicOptions(0.01)
			b.MinCount = minCount
			b.CandidateLimit = o.candidateLimit()
			return b
		}()},
	}
	maxLen := 0
	results := map[string]*mining.Result{}
	for _, r := range runs {
		if !o.wants(r.algo) {
			continue
		}
		res, err := mining.Mine(syms, txs, r.opts)
		if err != nil {
			panic(fmt.Sprintf("bench: fig11 mining failed: %v", err))
		}
		results[r.algo] = res
		if n := len(res.Levels); n > maxLen {
			maxLen = n
		}
		o.progress("fig11 %s: %d levels, aborted=%v", r.algo, len(res.Levels), res.Aborted)
	}
	algos := make([]string, 0, len(results))
	for a := range results {
		algos = append(algos, a)
	}
	sort.Strings(algos)
	for _, a := range algos {
		res := results[a]
		s := Series{Algorithm: a}
		for k := 0; k < maxLen; k++ {
			p := Point{X: float64(k + 1)}
			if k < len(res.Levels) {
				// Candidate counts are stored in Seconds' sibling field;
				// reuse Patterns for the count so WriteCounts can render.
				p.Patterns = res.Levels[k].Counted
			}
			s.Points = append(s.Points, p)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig
}

// WriteCounts renders a candidate-count figure (Fig 11 style) where the
// measurement is Patterns rather than Seconds.
func (f Figure) WriteCounts(w io.Writer) {
	fmt.Fprintf(w, "# Figure %s — %s\n", f.ID, f.Title)
	fmt.Fprintf(w, "%-10s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, " %12s", s.Algorithm)
	}
	fmt.Fprintln(w)
	if len(f.Series) == 0 {
		return
	}
	for i := range f.Series[0].Points {
		fmt.Fprintf(w, "%-10s", trimFloat(f.Series[0].Points[i].X))
		for _, s := range f.Series {
			fmt.Fprintf(w, " %12d", s.Points[i].Patterns)
		}
		fmt.Fprintln(w)
	}
}
