// Command flowbench regenerates the paper's §6 evaluation: one runner per
// figure (6–11) sweeping the same parameters and printing the same series,
// plus the ablation experiments DESIGN.md calls out.
//
// Usage:
//
//	flowbench -fig all                 # every figure at the default scale
//	flowbench -fig 6 -scale 1          # Figure 6 at the paper's full 100k–1M
//	flowbench -fig 7 -algos shared,cubing
//	flowbench -ablation pruning,merge,counting,redundancy,iceberg,parallel
//
// Scale multiplies the paper's database sizes; the default 0.1 sweeps
// 10k–100k paths and completes in minutes. Absolute times will not match
// the 2006 C++/Pentium-IV testbed — the reproduced result is the shape of
// each curve (see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"flowcube/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "flowbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("flowbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "", "figures to run: comma-separated subset of 6,7,8,9,10,11 or 'all'")
	ablation := fs.String("ablation", "", "ablations to run: comma-separated subset of pruning,merge,counting,redundancy,iceberg,parallel or 'all'")
	scale := fs.Float64("scale", 0.1, "multiplier on the paper's database sizes (1.0 = full 100k-1M sweep)")
	seed := fs.Int64("seed", 1, "synthetic generator seed")
	algos := fs.String("algos", "", "restrict algorithms: comma-separated subset of shared,cubing,basic")
	candLimit := fs.Int("candidate-limit", 2_000_000, "per-length candidate cap for the basic baseline")
	floor := fs.Int64("support-floor", 0, "lower bound on the absolute iceberg count (guards tiny -scale runs)")
	quiet := fs.Bool("quiet", false, "suppress per-point progress lines")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *fig == "" && *ablation == "" {
		*fig = "all"
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			_ = f.Close() // the profile never started; the empty file is useless either way
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			_ = f.Close() // StopCPUProfile flushed the data; a close failure loses nothing
		}()
	}
	opts := bench.Options{
		Scale:          *scale,
		Seed:           *seed,
		CandidateLimit: *candLimit,
		SupportFloor:   *floor,
	}
	if !*quiet {
		opts.Progress = stderr
	}
	if *algos != "" {
		opts.Algorithms = strings.Split(*algos, ",")
	}

	figures := map[string]func(bench.Options) bench.Figure{
		"6": bench.Fig6, "7": bench.Fig7, "8": bench.Fig8,
		"9": bench.Fig9, "10": bench.Fig10, "11": bench.Fig11,
	}
	order := []string{"6", "7", "8", "9", "10", "11"}

	if *fig != "" {
		want, err := selection(*fig, order, func(id string) bool { return figures[id] != nil })
		if err != nil {
			return fmt.Errorf("%w (have 6-11)", err)
		}
		for _, id := range order {
			if !want[id] {
				continue
			}
			f := figures[id](opts)
			if id == "11" {
				f.WriteCounts(stdout)
			} else {
				f.WriteTable(stdout)
			}
			fmt.Fprintln(stdout)
		}
	}

	ablations := map[string]struct {
		title string
		run   func(bench.Options) []bench.AblationRow
	}{
		"pruning":    {"A1: Shared pruning rules", bench.AblationPruning},
		"merge":      {"A2: algebraic flowgraph merge vs rescan", bench.AblationMerge},
		"counting":   {"A3: candidate trie vs naive counting", bench.AblationCounting},
		"redundancy": {"A4: cells retained vs tau", bench.AblationRedundancy},
		"iceberg":    {"A5: cells materialized vs delta", bench.AblationIceberg},
		"parallel":   {"A7: Shared counting worker scaling", bench.AblationParallel},
	}
	ablOrder := []string{"pruning", "merge", "counting", "redundancy", "iceberg", "parallel"}
	if *ablation != "" {
		want, err := selection(*ablation, ablOrder, func(id string) bool { _, ok := ablations[id]; return ok })
		if err != nil {
			return err
		}
		for _, id := range ablOrder {
			if !want[id] {
				continue
			}
			a := ablations[id]
			bench.WriteRows(stdout, a.title, a.run(opts))
			fmt.Fprintln(stdout)
		}
	}

	if *memprofile != "" {
		if err := writeMemProfile(*memprofile); err != nil {
			return err
		}
	}
	return nil
}

// writeMemProfile snapshots the heap into path.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	runtime.GC() // settle the heap so the profile reflects live allocations
	if err := pprof.WriteHeapProfile(f); err != nil {
		_ = f.Close() // the profile write already failed; that is the error to report
		return fmt.Errorf("memprofile: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}

// selection expands a comma-separated id list (or "all") against the known
// ids.
func selection(spec string, order []string, known func(string) bool) (map[string]bool, error) {
	want := map[string]bool{}
	if spec == "all" {
		for _, id := range order {
			want[id] = true
		}
		return want, nil
	}
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(id)
		if !known(id) {
			return nil, fmt.Errorf("unknown selection %q", id)
		}
		want[id] = true
	}
	return want, nil
}
