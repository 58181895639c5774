// Command flowlint is the project's static-analysis multichecker: eight
// analyzers that machine-check the contracts the flowcube codebase relies
// on but the compiler cannot see. Five are single-package — cube
// immutability after build (immutcube), map iteration order leaking into
// output (mapdet), epsilon-safe float comparisons (floatcmp), surfaced
// errors on persistence paths (errpath), unclosed HTTP response bodies
// (bodyclose) — and three run over cross-package facts computed in a first
// phase over every loaded package: locks held across blocking calls, direct
// or interprocedural (locksafe), leak-prone goroutine spawns (goroleak), and
// context plumbing on blocking exported surfaces (ctxflow).
//
// Usage:
//
//	flowlint [-only name,name] [-stats] [-facts] [package pattern ...]
//
// Patterns are directory patterns relative to the working directory
// (./..., ./internal/core, ./cmd/...); the default is ./... over the
// enclosing module. Cross-package facts cover exactly the loaded packages,
// so narrowing the pattern narrows what the fact-driven analyzers can see —
// CI always runs the full module. -stats prints per-analyzer finding counts
// and wall time to stderr; -facts dumps the phase-1 fact table instead of
// running phase 2. The exit status is 1 when any finding is reported, 2 on
// usage or load errors, and a failure names the offending analyzers.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"flowcube/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flowlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	stats := fs.Bool("stats", false, "print per-analyzer finding counts and wall time to stderr")
	facts := fs.Bool("facts", false, "dump the phase-1 cross-package fact table and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: flowlint [-only name,name] [-stats] [-facts] [package pattern ...]\n\nAnalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := lint.All()
	if *only != "" {
		byName := make(map[string]*lint.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a := byName[strings.TrimSpace(name)]
			if a == nil {
				fmt.Fprintf(stderr, "flowlint: unknown analyzer %q\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(patterns)
	if err != nil {
		fmt.Fprintf(stderr, "flowlint: %v\n", err)
		return 2
	}
	if len(pkgs) == 0 {
		// A typo'd pattern must not read as "no findings" in CI.
		fmt.Fprintf(stderr, "flowlint: no Go packages match %s\n", strings.Join(patterns, " "))
		return 2
	}
	table := lint.ComputeFacts(pkgs)
	if *facts {
		fmt.Fprint(stdout, lint.FormatFacts(table))
		return 0
	}
	findings, perAnalyzer := lint.RunStats(pkgs, analyzers, table)
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if *stats {
		for _, s := range perAnalyzer {
			fmt.Fprintf(stderr, "flowlint: %-10s %3d finding(s) %8.1fms\n",
				s.Name, s.Findings, float64(s.Elapsed.Microseconds())/1e3)
		}
	}
	if len(findings) > 0 {
		var offending []string
		for _, s := range perAnalyzer {
			if s.Findings > 0 {
				offending = append(offending, s.Name)
			}
		}
		fmt.Fprintf(stderr, "flowlint: %d finding(s) in %d package(s) from %s\n",
			len(findings), len(pkgs), strings.Join(offending, ", "))
		return 1
	}
	return 0
}
