// Command benchmark is this repository's benchmark: four workloads driven
// end to end through the shipped binaries (flowquery and flowserve as child
// processes, over loopback HTTP), plus an in-process traced pass that times
// calls into each layer's public functions. BENCHMARK.json at the repository
// root is its contract; README.md in this directory is the catalogue.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh --workload serve_cold --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh -seed 1            # all four workloads, table output
//	bash benchmark/run.sh -seed 1 -trace 1   # the per-layer pass, spans to benchmark/out/
//	bash benchmark/run.sh -aa 2              # A/A self-check against the bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// options are the parsed command line.
type options struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	sc       scale
	aa       int
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed of the generated inputs and request streams")
	secs := fs.Int("seconds", 0, "measured window in seconds (0 = the scale's default)")
	trace := fs.Int("trace", 0, "1 runs the in-process per-layer pass instead of the workload and writes its spans")
	scaleName := fs.String("scale", "std", "input sizes: std (what BENCHMARK.json measures) or smoke")
	aa := fs.Int("aa", 0, "run N sets of the whole suite on this code and check them against the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sc, ok := scales[*scaleName]
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown scale %q\n", *scaleName)
		return 2
	}
	if *secs == 0 {
		*secs = sc.seconds
	}
	if *secs < 0 {
		fmt.Fprintf(stderr, "benchmark: -seconds %d: the window cannot be negative\n", *secs)
		return 2
	}
	opts := options{
		workload: *workload, seed: *seed, window: time.Duration(*secs) * time.Second,
		trace: *trace != 0, sc: sc, aa: *aa,
	}
	if opts.workload != "all" && !slices.Contains(workloadNames, opts.workload) {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", opts.workload)
		return 2
	}

	e, err := newEnv(ctx)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	defer e.cleanup()
	printHeader(stdout, e, opts)

	if opts.aa > 0 {
		if err := runAA(ctx, e, opts, stdout); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		return 0
	}

	names := workloadNames
	if opts.workload != "all" {
		names = []string{opts.workload}
	}
	total := newResult()
	for _, name := range names {
		res, err := runOne(ctx, e, opts, name)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		printResult(stdout, name, res, opts.trace)
		total.attempted += res.attempted
		total.failed += res.failed
		total.problems = append(total.problems, res.problems...)
		for k, v := range res.metrics {
			if len(names) > 1 {
				k += "@" + name
			}
			total.metrics[k] = v
		}
		if opts.trace {
			break // the layer pass is the same whatever the workload
		}
	}
	defs := endToEnd
	if opts.trace {
		defs = perLayer
	}
	if err := printJSON(stdout, total, defs); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if !total.correct() {
		return 1
	}
	return 0
}

// runOne runs one workload once, or the layer pass when tracing.
func runOne(ctx context.Context, e *env, opts options, name string) (*result, error) {
	defer e.cleanup()
	if opts.trace {
		return runLayers(ctx, e, opts.sc, opts.seed, name)
	}
	var res *result
	var err error
	switch name {
	case "build":
		res, err = runBuild(ctx, e, opts.sc, opts.seed, opts.window)
	case "serve_hot":
		res, err = runServe(ctx, e, opts.sc, opts.seed, opts.window, false)
	case "serve_cold":
		res, err = runServe(ctx, e, opts.sc, opts.seed, opts.window, true)
	default:
		res, err = runIngest(ctx, e, opts.sc, opts.seed, opts.window)
	}
	if err != nil {
		return nil, err
	}
	for _, d := range endToEnd {
		// 0 is what peakRSSMB returns where there is no /proc to read.
		if v, ok := res.metrics[d.name]; ok && v <= 0 {
			res.problem("%s is %v: this host cannot measure it", d.name, v)
		}
	}
	return res, nil
}

// printHeader records what a reader needs to compare two runs: the code,
// the toolchain, the machine and the settings.
func printHeader(w io.Writer, e *env, opts options) {
	commit := "unknown (not a git checkout)"
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = e.root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Fprintf(w, "# flowcube benchmark: commit %s, %s, nproc %d, GOMAXPROCS %d\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "# scale %s, seed %d, window %s, trace %v, compile_s %.2f\n",
		opts.sc.name, opts.seed, opts.window, opts.trace, e.compileS)
}

func printResult(w io.Writer, name string, res *result, trace bool) {
	defs := endToEnd
	if trace {
		name = "layers"
		defs = perLayer
	}
	fmt.Fprintf(w, "\n== %s: %d attempted, %d failed\n", name, res.attempted, res.failed)
	for _, d := range defs {
		if v, ok := res.metrics[d.name]; ok {
			fmt.Fprintf(w, "%-32s %14.4f %s\n", d.name, v, d.unit)
		} else {
			fmt.Fprintf(w, "%-32s %14s %s\n", d.name, "absent", d.unit)
		}
	}
	keys := make([]string, 0, len(res.evidence))
	for k := range res.evidence {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  (%s = %.4g)\n", k, res.evidence[k])
	}
	for _, p := range res.problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
}

// printJSON writes the result line the driver reads: the last line of
// standard output. With one workload the metric keys are the bare names;
// with all four they carry "@workload".
func printJSON(w io.Writer, res *result, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	units := make(map[string]string, len(defs))
	for _, d := range defs {
		units[d.name] = d.unit
	}
	metrics := make(map[string]value)
	for k, v := range res.metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", k, v)
		}
		name, _, _ := strings.Cut(k, "@")
		metrics[k] = value{v, units[name]}
	}
	attempted := res.attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.correct(), "attempted": attempted, "failed": res.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "\n%s\n", line)
	return err
}
