// Outliers: the paper's introduction questions Q1/Q2 — exception discovery
// and non-redundant drill-down.
//
// A synthetic supply chain ships milk from several farms through a quality
// control station to store shelves. Two anomalies are planted:
//
//  1. items that linger at quality control are far more likely to end at
//     the returns counter (the paper's duration/transition correlation —
//     §1 question 2), and
//  2. one producer, "farm-a", routes and dwells differently from every
//     other farm, while the rest behave identically.
//
// The flowcube surfaces both: exception mining recovers the QC-dwell →
// returns rule as a flowgraph exception, and redundancy analysis marks
// every farm's cell redundant against the all-farms parent except farm-a —
// the paper's "milk from every manufacturer has very similar flow
// patterns, except for the milk from farm A" scenario.
//
// Run with: go run ./examples/outliers
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"

	"flowcube"
)

func main() {
	location := flowcube.NewHierarchy("location")
	location.MustAddPath("production", "farm")
	location.MustAddPath("production", "qc") // quality control
	location.MustAddPath("distribution", "dc")
	location.MustAddPath("distribution", "cold-truck")
	location.MustAddPath("retail", "shelf")
	location.MustAddPath("retail", "checkout")
	location.MustAddPath("retail", "returns")

	producer := flowcube.NewHierarchy("producer")
	farms := []string{"farm-a", "farm-b", "farm-c", "farm-d", "farm-e", "farm-f", "farm-g", "farm-h"}
	for _, f := range farms {
		producer.MustAddPath("dairy", f)
	}

	schema := flowcube.MustNewSchema(location, producer)
	db := flowcube.NewDB(schema)
	generateDairy(db, location, producer, 8000)

	leaf := flowcube.LevelCut(location, location.Depth())
	plan := flowcube.Plan{PathLevels: []flowcube.PathLevel{
		{Cut: leaf, Time: flowcube.TimeBase},
	}}
	cube, err := flowcube.Build(db, flowcube.Config{
		MinSupport:     0.01,
		Epsilon:        0.15,
		Tau:            0.60,
		Plan:           plan,
		MineExceptions: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Q2: does time spent at quality control correlate with returns?
	apex := flowcube.CuboidSpec{Item: flowcube.ItemLevel{0}, PathLevel: 0}
	cell, ok := cube.Cell(apex, []flowcube.NodeID{flowcube.RootConcept})
	if !ok {
		log.Fatal("apex cell missing")
	}
	fmt.Println("=== Flowgraph over all producers ===")
	fmt.Print(cell.Graph)

	qc := location.MustLookup("qc")
	returns := location.MustLookup("returns")
	fmt.Println("\n=== Exceptions involving quality-control dwell ===")
	shown := 0
	for _, x := range cell.Graph.Exceptions() {
		// Single-pin conditions on a flagged QC dwell only.
		if len(x.Condition) != 1 || x.Condition[0].Location != qc || x.Condition[0].Duration < 5 {
			continue
		}
		base := baseReturnsProb(x.Node, returns)
		cond := x.Transitions.Prob(int64(returns))
		if cond == 0 && base == 0 {
			continue
		}
		fmt.Printf("given %d units at QC: P(→returns) = %.2f at %v (in general %.2f), support %d\n",
			x.Condition[0].Duration, cond, names(location, x.Prefix), base, x.Support)
		shown++
		if shown >= 6 {
			break
		}
	}
	if shown == 0 {
		fmt.Println("(no QC exceptions above ε — increase the planted effect)")
	}

	// Non-redundant analysis: which producers deviate from the norm?
	fmt.Println("\n=== Per-producer redundancy against the all-producers cell ===")
	spec := flowcube.CuboidSpec{Item: flowcube.ItemLevel{2}, PathLevel: 0}
	type row struct {
		farm string
		sim  float64
		red  bool
	}
	var rows []row
	for _, f := range farms {
		c, ok := cube.Cell(spec, []flowcube.NodeID{producer.MustLookup(f)})
		if !ok {
			continue
		}
		rows = append(rows, row{f, c.Similarity, c.Redundant})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].sim < rows[j].sim })
	for _, r := range rows {
		verdict := "redundant (inferable from parent)"
		if !r.red {
			verdict = "NON-REDUNDANT — drill down here"
		}
		fmt.Printf("%-8s similarity=%.3f  %s\n", r.farm, r.sim, verdict)
	}

	// Drill down on the outlier.
	fmt.Println("\n=== Drill-down: farm-a's flowgraph ===")
	if c, ok := cube.Cell(spec, []flowcube.NodeID{producer.MustLookup("farm-a")}); ok {
		fmt.Print(c.Graph)
	}
}

func baseReturnsProb(n *flowcube.FlowNode, returns flowcube.NodeID) float64 {
	return n.TransitionProb(int64(returns))
}

func names(loc *flowcube.Hierarchy, prefix []flowcube.NodeID) []string {
	var out []string
	for _, id := range prefix {
		out = append(out, loc.Name(id))
	}
	return out
}

// generateDairy plants the two anomalies described in the package comment.
func generateDairy(db *flowcube.DB, location, producer *flowcube.Hierarchy, n int) {
	rng := rand.New(rand.NewSource(11))
	loc := func(name string) flowcube.NodeID { return location.MustLookup(name) }
	farms := []string{"farm-a", "farm-b", "farm-c", "farm-d", "farm-e", "farm-f", "farm-g", "farm-h"}
	for i := 0; i < n; i++ {
		farm := farms[rng.Intn(len(farms))]

		qcDwell := 1 + rng.Int63n(3) // normal QC pass: 1-3 units
		if rng.Intn(5) == 0 {
			qcDwell = 5 + rng.Int63n(3) // flagged batch: 5-7 units
		}
		// Planted correlation: long QC dwell quadruples the return rate.
		returnProb := 0.05
		if qcDwell >= 5 {
			returnProb = 0.45
		}

		p := flowcube.Path{
			{Location: loc("farm"), Duration: 1 + rng.Int63n(2)},
			{Location: loc("qc"), Duration: qcDwell},
		}
		if farm == "farm-a" {
			// The outlier producer: skips the distribution center, ships
			// directly by cold truck, and dwells long on the shelf.
			p = append(p, flowcube.Stage{Location: loc("cold-truck"), Duration: 3 + rng.Int63n(2)})
			p = append(p, flowcube.Stage{Location: loc("shelf"), Duration: 6 + rng.Int63n(4)})
		} else {
			p = append(p, flowcube.Stage{Location: loc("dc"), Duration: 1 + rng.Int63n(2)})
			p = append(p, flowcube.Stage{Location: loc("cold-truck"), Duration: 1})
			p = append(p, flowcube.Stage{Location: loc("shelf"), Duration: 2 + rng.Int63n(3)})
		}
		p = append(p, flowcube.Stage{Location: loc("checkout"), Duration: 0})
		if rng.Float64() < returnProb {
			p = append(p, flowcube.Stage{Location: loc("returns"), Duration: 1})
		}
		db.MustAppend(flowcube.Record{
			Dims: []flowcube.NodeID{producer.MustLookup(farm)},
			Path: p,
		})
	}
}
