// Command flowquery materializes a flowcube over a generated path database
// and inspects it: cube summaries, per-cell flowgraphs (answered through
// the OLAP algebra — roll-up, drill-down, slice, dice, and exact query-time
// reconstruction of non-materialized cells), exceptions, and Graphviz
// output. Cubes can be serialized with -save and reopened with -load,
// skipping the build. -load maps the snapshot, verifies every cell of it
// (exactly what an eager load would reject), prints the census from the
// section directories and decodes only the cells a query prints. A snapshot
// carries its own schema, plan and thresholds, so -in is optional with
// -load; given, the dataset must have the snapshot's schema.
//
// Usage:
//
//	flowgen -n 20000 -out paths.fdb
//	flowquery -in paths.fdb -summary
//	flowquery -in paths.fdb -cell 'd0=d0.1,d1=*' -pathlevel 0
//	flowquery -in paths.fdb -cell 'd0=d0.1' -op rollup -dim d0
//	flowquery -in paths.fdb -op slice -select 'd1=d1.2'
//	flowquery -in paths.fdb -cell 'd0=d0.1.0.2' -exceptions
//	flowquery -in paths.fdb -cell 'd0=*' -dot > apex.dot
//	flowquery -in paths.fdb -save cube.fcb
//	flowquery -load cube.fcb -summary
//	flowquery -load cube.fcb -cell 'd0=*' -top 3
//	flowquery -load cube.fcb -save copy.fcb
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/url"
	"os"
	"sort"
	"strconv"

	"flowcube/internal/core"
	"flowcube/internal/datagen"
	"flowcube/internal/hierarchy"
	"flowcube/internal/olap"
	"flowcube/internal/pathdb"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "flowquery: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("flowquery", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "dataset file written by flowgen (required unless -load)")
	minsup := fs.Float64("minsup", 0.01, "iceberg minimum support δ")
	epsilon := fs.Float64("epsilon", 0.1, "minimum deviation ε for exceptions")
	tau := fs.Float64("tau", 0, "similarity threshold τ (0 disables redundancy marking)")
	exceptions := fs.Bool("exceptions", false, "mine and print flowgraph exceptions")
	summary := fs.Bool("summary", false, "print cube summary statistics")
	cellSpec := fs.String("cell", "", "cell to query: comma-separated dim=concept pairs ('*' for aggregated)")
	op := fs.String("op", "cell", "OLAP operation: cell|rollup|drilldown|slice|dice")
	dim := fs.String("dim", "", "dimension name -op rollup/drilldown moves along")
	sel := fs.String("select", "", "slice/dice selectors: comma-separated dim=concept pairs")
	maxCells := fs.Int("max", 0, "cap multi-cell results (0 = default)")
	pathLevel := fs.Int("pathlevel", 0, "path abstraction level index (0-3)")
	dot := fs.Bool("dot", false, "emit the queried cell's flowgraph as Graphviz dot")
	top := fs.Int("top", 0, "list the N largest cells of the queried cuboid")
	workers := fs.Int("workers", 1, "goroutines for mining (candidate join, support counting), flowgraph construction and exception mining")
	saveCube := fs.String("save", "", "serialize the materialized cube to this file")
	loadCube := fs.String("load", "", "load a cube serialized with -save instead of building")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *in == "" && *loadCube == "" {
		fs.Usage()
		return fmt.Errorf("-in is required (optional only with -load)")
	}
	var ds *datagen.Dataset
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		ds, err = datagen.Read(f)
		_ = f.Close() // read-only; any close error is irrelevant next to Read's
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "loaded %d paths, %d dimensions\n", ds.DB.Len(), len(ds.Schema.Dims))
	}

	var cube *core.Cube
	if *loadCube != "" {
		var err error
		if cube, err = core.LoadCubeLazy(*loadCube, core.LazyOptions{}); err != nil {
			return err
		}
		defer cube.Close() //nolint:errcheck // a read-only mapping has nothing to flush
		if ds != nil {
			if err := cube.CheckSchema(ds.Schema); err != nil {
				return fmt.Errorf("-in %s does not match -load %s: %w", *in, *loadCube, err)
			}
		}
		if err := cube.Verify(context.Background()); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "loaded cube: %d cells\n", cube.NumCells())
	} else {
		var err error
		cube, err = core.Build(ds.DB, core.Config{
			MinSupport:     *minsup,
			Epsilon:        *epsilon,
			Tau:            *tau,
			Plan:           ds.DefaultPlan(),
			MineExceptions: *exceptions,
			Workers:        *workers,
		})
		if err != nil {
			return err
		}
	}
	if *saveCube != "" {
		if err := cube.SaveFile(*saveCube); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "saved cube to %s\n", *saveCube)
	}

	queried := *cellSpec != "" || *sel != ""
	if *summary || !queried {
		printSummary(stdout, cube)
	}
	if queried {
		if err := queryCell(stdout, stderr, cube, queryOpts{
			op: *op, cell: *cellSpec, dim: *dim, sel: *sel,
			pathLevel: *pathLevel, maxCells: *maxCells,
			dot: *dot, exceptions: *exceptions, top: *top,
		}); err != nil {
			return err
		}
	}
	// A mapped cube's query paths report a cell that fails to decode as
	// absent; its first such error makes the run fail.
	return cube.LazyErr()
}

func printSummary(w io.Writer, cube *core.Cube) {
	fmt.Fprintf(w, "flowcube: %d cuboids, %d cells, δ=%d paths\n",
		len(cube.Cuboids), cube.NumCells(), cube.MinCount())
	type row struct {
		key   string
		cells int
	}
	var rows []row
	for _, cs := range cube.CuboidSummaries() {
		if cs.Cells > 0 {
			rows = append(rows, row{cs.Key, cs.Cells})
		}
	}
	// The census comes in key order, so a stable sort by size breaks ties
	// by key.
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].cells > rows[j].cells })
	fmt.Fprintln(w, "largest cuboids (item-levels@path-level: cells):")
	for i, r := range rows {
		if i >= 10 {
			break
		}
		fmt.Fprintf(w, "  %-16s %6d\n", r.key, r.cells)
	}
	if cube.Mining != nil {
		total := 0
		for _, l := range cube.Mining.Levels {
			total += l.Frequent
		}
		fmt.Fprintf(w, "mining: %d scans, %d frequent patterns, longest %d\n",
			cube.Mining.Scans, total, cube.Mining.MaxLen())
	}
}

// queryOpts carries the query-shaped flags into queryCell.
type queryOpts struct {
	op, cell, dim, sel  string
	pathLevel, maxCells int
	dot, exceptions     bool
	top                 int
}

func queryCell(stdout, stderr io.Writer, cube *core.Cube, o queryOpts) error {
	// The CLI shares /v2/query's parser so both surfaces name cells, ops,
	// and selectors identically.
	params := url.Values{}
	params.Set("op", o.op)
	params.Set("cell", o.cell)
	params.Set("pathlevel", strconv.Itoa(o.pathLevel))
	if o.dim != "" {
		params.Set("dim", o.dim)
	}
	if o.sel != "" {
		params.Set("select", o.sel)
	}
	if o.maxCells > 0 {
		params.Set("max", strconv.Itoa(o.maxCells))
	}
	q, err := olap.ParseQuery(cube, params)
	if err != nil {
		return err
	}

	if o.top > 0 {
		cb := cube.Cuboid(q.Spec)
		if cb == nil {
			return fmt.Errorf("cuboid %s not materialized", q.Spec.Key())
		}
		// The counts are in the directory: listing them decodes no cell.
		type counted struct {
			values []hierarchy.NodeID
			count  int64
		}
		var cells []counted
		if err := cb.EachCount(func(values []hierarchy.NodeID, count int64) {
			cells = append(cells, counted{values, count})
		}); err != nil {
			return err
		}
		sort.SliceStable(cells, func(i, j int) bool { return cells[i].count > cells[j].count })
		fmt.Fprintf(stdout, "top cells of cuboid %s:\n", q.Spec.Key())
		for i, c := range cells {
			if i >= o.top {
				break
			}
			fmt.Fprintf(stdout, "  %v: %d paths\n", cellNames(cube.Schema, c.values), c.count)
		}
		return nil
	}

	a, err := cube.Answer(context.Background(), q)
	if err != nil {
		if errors.Is(err, core.ErrCellNotFound) {
			return fmt.Errorf("no materialized cell answers %q (even by roll-up)", o.cell)
		}
		return err
	}
	if len(a.Cells) == 0 {
		return fmt.Errorf("op %s matched no answerable cells (%d skipped)", q.Op, a.Skipped)
	}
	if a.Truncated || a.Skipped > 0 {
		fmt.Fprintf(stderr, "op %s: %d cells answered, %d skipped, truncated=%v\n",
			q.Op, len(a.Cells), a.Skipped, a.Truncated)
	}
	for _, ca := range a.Cells {
		cellName := core.FormatCell(cube.Schema, ca.Values)
		switch ca.Provenance {
		case core.AncestorFallback:
			fmt.Fprintf(stderr, "cell below iceberg threshold; answered from ancestor %v (%d paths)\n",
				cellNames(cube.Schema, ca.Source.Values), ca.Source.Count)
		case core.ComputedFromDescendants:
			fmt.Fprintf(stderr, "cuboid %s not materialized; cell %s reconstructed exactly by folding %d descendant cells\n",
				ca.Spec.Key(), cellName, len(ca.Folded))
		}
		if o.dot {
			// Graphviz output is one document; emit the first answered cell.
			fmt.Fprint(stdout, ca.Graph.DOT(cellName))
			return nil
		}
		if len(a.Cells) > 1 {
			fmt.Fprintf(stdout, "cell %s (%s, %d paths):\n", cellName, ca.Provenance, ca.Source.Count)
		}
		fmt.Fprint(stdout, ca.Graph)
		if o.exceptions {
			xs := ca.Graph.Exceptions() // a resting graph thaws a copy per call
			fmt.Fprintf(stdout, "%d exceptions:\n", len(xs))
			for i, x := range xs {
				if i >= 20 {
					fmt.Fprintf(stdout, "  ... and %d more\n", len(xs)-20)
					break
				}
				fmt.Fprintf(stdout, "  node %v cond %v support=%d devT=%.2f devD=%.2f\n",
					prefixNames(cube.Schema, x.Prefix), x.Condition, x.Support,
					x.TransitionDeviation, x.DurationDeviation)
			}
		}
	}
	return nil
}

func cellNames(schema *pathdb.Schema, values []hierarchy.NodeID) []string {
	out := make([]string, len(values))
	for i, v := range values {
		out[i] = schema.Dims[i].Name(v)
	}
	return out
}

func prefixNames(schema *pathdb.Schema, prefix []hierarchy.NodeID) []string {
	out := make([]string, len(prefix))
	for i, v := range prefix {
		out[i] = schema.Location.Name(v)
	}
	return out
}
