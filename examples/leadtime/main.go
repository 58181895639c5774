// Leadtime: the paper's introduction question 1, starting from raw RFID
// readings.
//
// "What are the most typical paths, with average duration at each stage,
// that shoes manufactured in China take before arriving to the L.A.
// distribution center, and list the most notable deviations from the
// typical paths that significantly increase total lead time?"
//
// This example exercises the full pipeline:
//
//  1. a raw (EPC, location, time) reading stream is synthesized — the form
//     an RFID deployment actually produces, with repeated antenna reads;
//  2. §2 cleaning sessionizes it into a path database with hour-level
//     durations;
//  3. a flowcube is built, and the (shoes, china) cell is interrogated for
//     its typical paths, per-stage mean durations, expected lead time, and
//     the exceptions that most increase it.
//
// Run with: go run ./examples/leadtime
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"

	"flowcube"
)

const hour = 3600 // raw readings tick in seconds

func main() {
	location := flowcube.NewHierarchy("location")
	location.MustAddPath("factory", "cn-line1")
	location.MustAddPath("factory", "cn-line2")
	location.MustAddPath("transport", "ship")
	location.MustAddPath("transport", "customs")
	location.MustAddPath("dc", "la-dc")

	product := flowcube.NewHierarchy("product")
	product.MustAddPath("shoes", "tennis")
	product.MustAddPath("shoes", "sandals")
	product.MustAddPath("clothing", "jacket")

	origin := flowcube.NewHierarchy("origin")
	origin.MustAddPath("asia", "china")
	origin.MustAddPath("asia", "vietnam")

	schema := flowcube.MustNewSchema(location, product, origin)

	// 1. Synthesize the raw stream: each item is read every few minutes
	// while it sits at a location.
	readings, items := synthesizeStream(location, product, origin, 1500)
	fmt.Printf("raw stream: %d readings for %d items\n", len(readings), len(items))

	// 2. Clean into a path database at hour granularity. A 2-hour read gap
	// at one location splits the stay; sub-15-minute blips are dropped.
	db, err := flowcube.Clean(schema, readings, items, flowcube.CleanOptions{
		MaxGap:  2 * hour,
		MinStay: 900,
		Unit:    hour,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cleaned: %d paths\n\n", db.Len())

	// 3. Build the cube and query the (shoes, china) cell.
	leaf := flowcube.LevelCut(location, location.Depth())
	cube, err := flowcube.Build(db, flowcube.Config{
		MinSupport:     0.02,
		Epsilon:        0.15,
		Plan:           flowcube.Plan{PathLevels: []flowcube.PathLevel{{Cut: leaf, Time: flowcube.TimeBase}}},
		MineExceptions: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	spec := flowcube.CuboidSpec{Item: flowcube.ItemLevel{1, 2}, PathLevel: 0}
	cell, ok := cube.Cell(spec, []flowcube.NodeID{
		product.MustLookup("shoes"), origin.MustLookup("china"),
	})
	if !ok {
		log.Fatal("(shoes, china) cell missing")
	}
	g := cell.Graph
	fmt.Printf("=== (shoes, china): %d items, expected lead time %.1f h ===\n\n",
		cell.Count, g.ExpectedLeadTime())

	fmt.Println("most typical paths (probability, mean hours per stage):")
	for _, p := range g.TopPaths(3) {
		names := make([]string, len(p.Locations))
		for i, l := range p.Locations {
			names[i] = fmt.Sprintf("%s(%.1fh)", location.Name(l), p.MeanDurations[i])
		}
		fmt.Printf("  %5.1f%%  %s  — mean lead %.1f h\n",
			100*p.Prob, strings.Join(names, " → "), p.MeanLeadTime)
	}

	fmt.Println("\ndeviations that most increase lead time:")
	for i, x := range g.SlowestDeviations(3) {
		pin := x.Condition[len(x.Condition)-1]
		fmt.Printf("  %d. when %s took %d h, the stay at %v averages %.1f h vs %.1f h in general (support %d)\n",
			i+1, location.Name(pin.Location), pin.Duration,
			location.Name(x.Node.Location), x.Durations.Mean(), x.Node.Durations.Mean(), x.Support)
	}
}

// synthesizeStream emits raw readings: china-made shoes route line→ship→
// customs→la-dc; a slice of shipments hits a customs hold that also slows
// their release to the DC (the lead-time deviation the analysis finds).
func synthesizeStream(location, product, origin *flowcube.Hierarchy, n int) ([]flowcube.Reading, map[string]flowcube.TaggedItem) {
	rng := rand.New(rand.NewSource(23))
	var readings []flowcube.Reading
	items := make(map[string]flowcube.TaggedItem)
	loc := func(s string) flowcube.NodeID { return location.MustLookup(s) }

	emitStay := func(epc string, l flowcube.NodeID, start, dur int64) int64 {
		for t := start; t <= start+dur; t += 600 + rng.Int63n(600) {
			readings = append(readings, flowcube.Reading{EPC: epc, Location: l, Time: t})
		}
		return start + dur
	}

	for i := 0; i < n; i++ {
		epc := fmt.Sprintf("epc-%05d", i)
		prod := []string{"tennis", "sandals", "jacket"}[rng.Intn(3)]
		org := []string{"china", "vietnam"}[rng.Intn(2)]
		items[epc] = flowcube.TaggedItem{Dims: []flowcube.NodeID{
			product.MustLookup(prod), origin.MustLookup(org),
		}}

		line := "cn-line1"
		if rng.Intn(2) == 0 {
			line = "cn-line2"
		}
		t := int64(rng.Intn(1000)) * 60
		t = emitStay(epc, loc(line), t, (4+rng.Int63n(4))*hour)
		t = emitStay(epc, loc("ship"), t+hour/2, (20+rng.Int63n(8))*hour)

		customsDwell := (2 + rng.Int63n(2)) * hour
		dcDwell := (3 + rng.Int63n(3)) * hour
		if rng.Intn(6) == 0 {
			// Customs hold: a fixed 10-hour secondary inspection, after
			// which the held freight also queues at the DC.
			customsDwell = 10*hour + rng.Int63n(hour/2)
			dcDwell = (10 + rng.Int63n(4)) * hour
		}
		t = emitStay(epc, loc("customs"), t+hour/2, customsDwell)
		emitStay(epc, loc("la-dc"), t+hour/2, dcDwell)
	}
	return readings, items
}
