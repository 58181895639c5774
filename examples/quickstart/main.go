// Quickstart: the paper's running example end to end.
//
// Builds the Table-1 path database — eight items moving through factories,
// distribution centers, trucks and stores — materializes an iceberg
// flowcube over it, prints the Figure-3 flowgraph of the whole database and
// the Figure-4 flowgraph of the (outerwear, nike) cell, and lists the
// mined exceptions, including the paper's "items that stay 1 hour on the
// truck divert to the warehouse" deviation.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"flowcube"
)

func main() {
	// Concept hierarchies (paper Figures 2 and 5).
	product := flowcube.NewHierarchy("product")
	product.MustAddPath("clothing", "shoes", "tennis")
	product.MustAddPath("clothing", "shoes", "sandals")
	product.MustAddPath("clothing", "outerwear", "shirt")
	product.MustAddPath("clothing", "outerwear", "jacket")

	brand := flowcube.NewHierarchy("brand")
	brand.MustAddPath("sports", "nike")
	brand.MustAddPath("sports", "adidas")

	location := flowcube.NewHierarchy("location")
	location.MustAddPath("transportation", "d") // distribution center
	location.MustAddPath("transportation", "t") // truck
	location.MustAddPath("factory", "f")
	location.MustAddPath("store", "w") // warehouse
	location.MustAddPath("store", "b") // backroom
	location.MustAddPath("store", "s") // shelf
	location.MustAddPath("store", "c") // checkout

	schema := flowcube.MustNewSchema(location, product, brand)
	db := flowcube.NewDB(schema)

	// The eight Table-1 records.
	add := func(prod, br, path string, stages ...any) {
		_ = path
		rec := flowcube.Record{Dims: []flowcube.NodeID{
			product.MustLookup(prod), brand.MustLookup(br),
		}}
		for i := 0; i < len(stages); i += 2 {
			rec.Path = append(rec.Path, flowcube.Stage{
				Location: location.MustLookup(stages[i].(string)),
				Duration: int64(stages[i+1].(int)),
			})
		}
		db.MustAppend(rec)
	}
	add("tennis", "nike", "", "f", 10, "d", 2, "t", 1, "s", 5, "c", 0)
	add("tennis", "nike", "", "f", 5, "d", 2, "t", 1, "s", 10, "c", 0)
	add("sandals", "nike", "", "f", 10, "d", 1, "t", 2, "s", 5, "c", 0)
	add("shirt", "nike", "", "f", 10, "t", 1, "s", 5, "c", 0)
	add("jacket", "nike", "", "f", 10, "t", 2, "s", 5, "c", 1)
	add("jacket", "nike", "", "f", 10, "t", 1, "w", 5)
	add("tennis", "adidas", "", "f", 5, "d", 2, "t", 2, "s", 20)
	add("tennis", "adidas", "", "f", 5, "d", 2, "t", 3, "s", 10, "d", 5)

	// Path abstraction levels: leaf locations and the one-level-up cut,
	// each with exact durations and durations aggregated to '*'.
	leaf := flowcube.LevelCut(location, location.Depth())
	up := flowcube.LevelCut(location, 1)
	plan := flowcube.Plan{PathLevels: []flowcube.PathLevel{
		{Cut: leaf, Time: flowcube.TimeBase},
		{Cut: leaf, Time: flowcube.TimeAny},
		{Cut: up, Time: flowcube.TimeBase},
		{Cut: up, Time: flowcube.TimeAny},
	}}

	cube, err := flowcube.Build(db, flowcube.Config{
		MinCount:       2,   // iceberg δ: at least 2 paths per cell
		Epsilon:        0.1, // minimum deviation for exceptions
		Plan:           plan,
		MineExceptions: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("materialized %d cells across %d cuboids (δ=%d)\n\n",
		cube.NumCells(), len(cube.Cuboids), cube.MinCount())

	// Figure 3: the flowgraph of every path (the apex cell).
	apex := flowcube.CuboidSpec{Item: flowcube.ItemLevel{0, 0}, PathLevel: 0}
	cell, ok := cube.Cell(apex, []flowcube.NodeID{flowcube.RootConcept, flowcube.RootConcept})
	if !ok {
		log.Fatal("apex cell missing")
	}
	fmt.Println("=== Figure 3: flowgraph of the full path database ===")
	fmt.Print(cell.Graph)

	f := cell.Graph.NodeAt([]flowcube.NodeID{location.MustLookup("f")})
	fmt.Printf("\nfactory node: duration dist [%s], transition dist [%s]\n\n",
		&f.Durations, transitionDist(location, f))

	// Figure 4: the (outerwear, nike) cell.
	spec := flowcube.CuboidSpec{Item: flowcube.ItemLevel{2, 2}, PathLevel: 0}
	ow, ok := cube.Cell(spec, []flowcube.NodeID{
		product.MustLookup("outerwear"), brand.MustLookup("nike"),
	})
	if !ok {
		log.Fatal("(outerwear, nike) cell missing")
	}
	fmt.Println("=== Figure 4: flowgraph for cell (outerwear, nike) ===")
	fmt.Print(ow.Graph)

	// The paper's §3 exception: truck→warehouse is 33% in general but 50%
	// for items that stayed 1 hour at the truck.
	fmt.Println("\n=== Exceptions in (outerwear, nike) ===")
	for _, x := range ow.Graph.Exceptions() {
		fmt.Printf("at %v given %v: support=%d transitions[%s] (deviation %.2f)\n",
			prefixNames(location, x.Prefix), pins(location, x.Condition),
			x.Support, x.Transitions, x.TransitionDeviation)
	}

	// Roll-up inference: (sandals, nike) holds a single path — below the
	// iceberg threshold — so the query answers from an ancestor cell, and
	// the Answer carries that provenance.
	q := flowcube.Query{
		Spec: flowcube.CuboidSpec{Item: flowcube.ItemLevel{3, 2}, PathLevel: 0},
		Values: []flowcube.NodeID{
			product.MustLookup("sandals"), brand.MustLookup("nike"),
		},
	}
	a, err := cube.Answer(context.Background(), q)
	if err != nil {
		log.Fatal(err)
	}
	sandals := a.Cells[0]
	fmt.Printf("\nquery (sandals, nike): provenance=%s exact=%v, answered from cell with %d paths\n",
		sandals.Provenance, sandals.Exact, sandals.Source.Count)

	// The transportation manager's Figure-5 view: warehouse kept at
	// detail, the rest of the store collapsed.
	transport, err := flowcube.CutByNames(location, "d", "t", "w", "factory", "store")
	if err != nil {
		log.Fatal(err)
	}
	tg := flowcube.BuildFlowgraph(location, flowcube.PathLevel{Cut: transport, Time: flowcube.TimeBase}, paths(db))
	fmt.Println("\n=== Transportation view (Figure 5 cut) ===")
	fmt.Print(tg)
}

func paths(db *flowcube.DB) []flowcube.Path {
	out := make([]flowcube.Path, 0, db.Len())
	for _, r := range db.Records {
		out = append(out, r.Path)
	}
	return out
}

func prefixNames(loc *flowcube.Hierarchy, prefix []flowcube.NodeID) []string {
	var out []string
	for _, id := range prefix {
		out = append(out, loc.Name(id))
	}
	return out
}

func pins(loc *flowcube.Hierarchy, ps []flowcube.StagePin) []string {
	var out []string
	for _, p := range ps {
		out = append(out, fmt.Sprintf("stage%d=%s,dur=%d", p.Depth, loc.Name(p.Location), p.Duration))
	}
	return out
}

// transitionDist renders a node's transition distribution — its children,
// and "end" for the paths that stop there — in the duration
// distribution's "outcome:p" style.
func transitionDist(loc *flowcube.Hierarchy, n *flowcube.FlowNode) string {
	var out []string
	if p := n.TerminationProb(); p > 0 {
		out = append(out, fmt.Sprintf("end:%.2f", p))
	}
	for _, c := range n.Children() {
		out = append(out, fmt.Sprintf("%s:%.2f", loc.Name(c.Location), n.ChildProb(c)))
	}
	return strings.Join(out, " ")
}
