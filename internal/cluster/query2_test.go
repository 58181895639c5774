package cluster_test

// Routed cell-query tests: materialized cells, the scattered fold for cells
// of dropped cuboids (the census certificate makes it exact or refused,
// never wrong), ancestor fallback, roll-up, the 501 for multi-cell ops —
// and, for every cell the schema can name, byte parity with a single node
// over the same pruned cube on both wire formats.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/hierarchy"
	"flowcube/internal/oracle"
)

// prunedPaperex builds the paper's running example, eager and pruned of
// every path-level-0 cuboid but the finest, without exceptions (a fold
// cannot rebuild them) and with MinCount 1, so no iceberg truncation blocks
// reconstruction, redundancy marked at tau; dropped holds the pruned keys.
func prunedPaperex(t *testing.T, tau float64) (eager, pruned *core.Cube, dropped map[string]bool) {
	_, eager = oracle.Table1(t, oracle.Views, core.Config{MinCount: 1, Tau: tau})
	pruned, specs := oracle.Pruned(t, eager, oracle.Coarse)
	dropped = make(map[string]bool)
	for _, s := range specs {
		dropped[s.Key()] = true
	}
	return eager, pruned, dropped
}

// queryBody is the slice of a /v2/query response the assertions need.
type queryBody struct {
	Op    string `json:"op"`
	Cells []struct {
		Cell       string `json:"cell"`
		Provenance string `json:"provenance"`
		Exact      bool   `json:"exact"`
		Source     struct {
			Count int64 `json:"count"`
		} `json:"source"`
		Folded []struct {
			Cuboid string `json:"cuboid"`
			Cell   string `json:"cell"`
		} `json:"folded"`
	} `json:"cells"`
}

// TestRouterQueryV2 splits a partially materialized cube and checks the
// routed v2 surface: every cell of the eager cube — materialized (one owner
// lookup), dropped (scattered fold), and inferred — answers byte-for-byte
// as a single node over the same pruned cube, and a dropped cuboid's cell
// carries computed provenance with the eager cell's exact count.
func TestRouterQueryV2(t *testing.T) {
	eager, pruned, dropped := prunedPaperex(t, 0)
	fx := newFixture(t, pruned, 3)

	var computedURL string
	var computedCount int64
	for _, spec := range eager.MaterializedSpecs() {
		cb := eager.Cuboid(spec)
		for _, cell := range cb.SortedCells() {
			u := fmt.Sprintf("/v2/query?op=cell&cell=%s&pathlevel=%d",
				core.FormatCell(eager.Schema, cell.Values), spec.PathLevel)
			fx.assertSame(t, u, false)
			if dropped[spec.Key()] && computedURL == "" {
				computedURL, computedCount = u, cell.Count
			}
		}
	}
	if computedURL == "" {
		t.Fatal("no dropped cuboid cell was enumerated; fixture does not exercise the scattered fold")
	}

	// The dropped cell reconstructs through the router with the exact eager
	// count and the folded descendants listed.
	rec := get(fx.router.Handler(), computedURL)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", computedURL, rec.Code, rec.Body)
	}
	var body queryBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Cells) != 1 {
		t.Fatalf("computed cell answered %d cells, want 1", len(body.Cells))
	}
	c0 := body.Cells[0]
	if c0.Provenance != "computed" || !c0.Exact {
		t.Fatalf("dropped cell provenance/exact = %s/%v, want computed/true", c0.Provenance, c0.Exact)
	}
	if c0.Source.Count != computedCount {
		t.Fatalf("computed cell count = %d, eager cell has %d", c0.Source.Count, computedCount)
	}
	if len(c0.Folded) == 0 {
		t.Fatal("computed cell lists no folded descendants")
	}

	// With reconstruction disabled the same cell answers by ancestor
	// inference, found in the order a single node discovers it.
	fx.assertSame(t, computedURL+"&nocompute=1", false)

	// A roll-up answers as on a single node, op echoed.
	fx.assertSame(t, "/v2/query?op=rollup&cell=product=shoes,brand=nike&dim=product", false)

	// Multi-cell ops need cross-shard enumeration the router does not do.
	rec = get(fx.router.Handler(), "/v2/query?op=slice&select=brand=nike")
	if rec.Code != http.StatusNotImplemented {
		t.Fatalf("routed slice: status %d, want 501: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "not implemented") {
		t.Fatalf("routed slice body: %s", rec.Body)
	}

	// Parse errors surface as 400 without touching any shard.
	rec = get(fx.router.Handler(), "/v2/query?op=pivot")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("routed bad op: status %d, want 400: %s", rec.Code, rec.Body)
	}
}

// everyCell enumerates every value tuple the cube's schema can name — each
// dimension ranging over its whole hierarchy, '*' included — at every path
// level, as (cell spec, path level) pairs.
func everyCell(cube *core.Cube) (cells []string, pathLevels int) {
	tuples := [][]hierarchy.NodeID{nil}
	for _, h := range cube.Schema.Dims {
		var next [][]hierarchy.NodeID
		for _, t := range tuples {
			for id := 0; id < h.Len(); id++ {
				next = append(next, append(append([]hierarchy.NodeID(nil), t...), hierarchy.NodeID(id)))
			}
		}
		tuples = next
	}
	for _, v := range tuples {
		cells = append(cells, core.FormatCell(cube.Schema, v))
	}
	return cells, len(cube.Symbols.PathLevels())
}

// cellParityURLs is the /v1/cell and /v2/query?op=cell request for every
// cell: the subset on which the pre-AnswerFrom router diverged.
func cellParityURLs(cube *core.Cube) (v1, v2 []string) {
	cells, pls := everyCell(cube)
	for _, c := range cells {
		for pl := 0; pl < pls; pl++ {
			v1 = append(v1, fmt.Sprintf("/v1/cell?cell=%s&pathlevel=%d", c, pl))
			v2 = append(v2, fmt.Sprintf("/v2/query?op=cell&cell=%s&pathlevel=%d", c, pl))
		}
	}
	return v1, v2
}

// v2ParityURLs widens the /v2 cell requests with nocompute and a roll-up
// along each dimension (400 where the dimension is already '*').
func v2ParityURLs(cube *core.Cube) []string {
	_, v2 := cellParityURLs(cube)
	urls := append([]string(nil), v2...)
	for _, u := range v2 {
		urls = append(urls, u+"&nocompute=1")
		for _, h := range cube.Schema.Dims {
			urls = append(urls, strings.Replace(u, "op=cell", "op=rollup&dim="+h.Dimension(), 1))
		}
	}
	return urls
}

// TestRouterParityPrunedCube is the one-engine contract: over a partially
// materialized cube on three shards, every cell the schema can name
// answers through the router exactly as on a single node — on /v1/cell
// (json and dot) and on /v2/query (cell, nocompute, roll-up) — because both
// run core's planner and internal/server's renderers, and only the cell
// source differs. With redundancy marking on, a reconstruction also
// re-marks the cell against parents fetched from other shards. With a shard
// down, an answer is the single node's or a 502, never a different 200.
func TestRouterParityPrunedCube(t *testing.T) {
	_, pruned, _ := prunedPaperex(t, 0)
	fx := newFixture(t, pruned, 3)
	v1, v2 := cellParityURLs(pruned)

	// The subset the router's own planner used to get wrong: it 404ed 16 of
	// the 64 /v1/cell answers and picked another ancestor for 1 of the 64
	// /v2 ones. Every divergence is reported, not just the first.
	t.Run("cells", func(t *testing.T) {
		for _, u := range append(append([]string(nil), v1...), v2...) {
			if d := fx.differs(u, false); d != "" {
				t.Error(d)
			}
		}
	})

	all := append(append([]string(nil), v1...), v2ParityURLs(pruned)...)
	for _, u := range v1 {
		all = append(all, u+"&format=dot")
	}
	for _, u := range all {
		fx.assertSame(t, u, false)
	}

	_, prunedTau, _ := prunedPaperex(t, 0.5)
	fxTau := newFixture(t, prunedTau, 3)
	for _, u := range v2ParityURLs(prunedTau) {
		fxTau.assertSame(t, u, false)
	}

	fx.shards[2].Close()
	answered, refused := 0, 0
	for _, u := range all {
		got := get(fx.router.Handler(), u)
		if got.Code == http.StatusBadGateway {
			refused++
			continue
		}
		if want := get(fx.single.Handler(), u); got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Fatalf("%s with a shard down: router answered %d, neither a 502 nor the single node's %d\nrouter: %s\nsingle: %s",
				u, got.Code, want.Code, got.Body, want.Body)
		}
		answered++
	}
	if answered == 0 || refused == 0 {
		t.Fatalf("with a shard down %d requests answered and %d were refused; the fixture should exercise both", answered, refused)
	}
}
