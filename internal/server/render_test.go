package server

import (
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/flowgraph"
	"flowcube/internal/hierarchy"
	"flowcube/internal/pathdb"
	"flowcube/internal/stats"
)

// The reference projection: the value types /v1/cell and /v2/query bodies
// were json.MarshalIndent(v, "", "  ") of before the direct writer
// (render.go). The writer must print exactly what encoding/json prints for
// them.

type NodeJSON struct {
	Location        string             `json:"location"`
	Count           int64              `json:"count"`
	Prob            float64            `json:"prob"`
	TerminationProb float64            `json:"termination_prob,omitempty"`
	MeanDuration    float64            `json:"mean_duration"`
	Durations       map[string]float64 `json:"durations,omitempty"`
	Children        []NodeJSON         `json:"children,omitempty"`
}

type GraphJSON struct {
	Paths int64      `json:"paths"`
	Roots []NodeJSON `json:"roots"`
}

type CellRefJSON struct {
	Cell      string   `json:"cell"`
	Values    []string `json:"values"`
	Count     int64    `json:"count"`
	Redundant bool     `json:"redundant,omitempty"`
}

type CellResponse struct {
	Cell      string      `json:"cell"`
	PathLevel int         `json:"path_level"`
	Exact     bool        `json:"exact"`
	Source    CellRefJSON `json:"source"`
	Graph     GraphJSON   `json:"graph"`
}

type CellAnswerJSON struct {
	Cell         string          `json:"cell"`
	PathLevel    int             `json:"path_level"`
	Provenance   string          `json:"provenance"`
	Exact        bool            `json:"exact"`
	SourceCuboid string          `json:"source_cuboid"`
	Source       CellRefJSON     `json:"source"`
	Folded       []FoldedRefJSON `json:"folded,omitempty"`
	Graph        GraphJSON       `json:"graph"`
}

type FoldedRefJSON struct {
	Cuboid string `json:"cuboid"`
	Cell   string `json:"cell"`
}

type QueryResponse struct {
	Op        string           `json:"op"`
	Cells     []CellAnswerJSON `json:"cells"`
	Truncated bool             `json:"truncated,omitempty"`
	Skipped   int              `json:"skipped,omitempty"`
}

func renderDist(m interface {
	Outcomes() []int64
	Prob(int64) float64
}) map[string]float64 {
	out := make(map[string]float64)
	for _, v := range m.Outcomes() {
		out[strconv.FormatInt(v, 10)] = m.Prob(v)
	}
	return out
}

func renderNode(loc *hierarchy.Hierarchy, parent, n *flowgraph.Node) NodeJSON {
	nj := NodeJSON{
		Location:     loc.Name(n.Location),
		Count:        n.Count,
		Prob:         refShare(n.Count, parent),
		MeanDuration: n.Durations.Mean(),
		Durations:    renderDist(&n.Durations),
	}
	ends := n.Count
	for _, c := range n.Children() {
		ends -= c.Count
	}
	nj.TerminationProb = refShare(ends, n)
	for _, c := range n.Children() {
		nj.Children = append(nj.Children, renderNode(loc, n, c))
	}
	return nj
}

// refShare is count over the paths through n, 0 when none are: its Count,
// or at the root, whose Count is 0, its children's.
func refShare(count int64, n *flowgraph.Node) float64 {
	total := n.Count
	if n.Depth == 0 {
		total = 0
		for _, c := range n.Children() {
			total += c.Count
		}
	}
	if total == 0 {
		return 0
	}
	return float64(count) / float64(total)
}

func renderGraph(loc *hierarchy.Hierarchy, g *flowgraph.Graph) GraphJSON {
	gj := GraphJSON{Paths: g.Paths()}
	for _, c := range g.Root().Children() {
		gj.Roots = append(gj.Roots, renderNode(loc, g.Root(), c))
	}
	return gj
}

func renderCellRef(cube *core.Cube, cell *core.Cell) CellRefJSON {
	ref := CellRefJSON{
		Cell:      core.FormatCell(cube.Schema, cell.Values),
		Count:     cell.Count,
		Redundant: cell.Redundant,
	}
	for d, v := range cell.Values {
		ref.Values = append(ref.Values, cube.Schema.Dims[d].Name(v))
	}
	return ref
}

func RenderCellAnswer(cube *core.Cube, ca core.CellAnswer) CellAnswerJSON {
	out := CellAnswerJSON{
		Cell:         core.FormatCell(cube.Schema, ca.Values),
		PathLevel:    ca.Spec.PathLevel,
		Provenance:   ca.Provenance.String(),
		Exact:        ca.Exact,
		SourceCuboid: ca.SourceSpec.Key(),
		Source:       renderCellRef(cube, ca.Source),
		Graph:        renderGraph(cube.Schema.Location, ca.Graph),
	}
	for _, f := range ca.Folded {
		out.Folded = append(out.Folded, FoldedRefJSON{
			Cuboid: f.Spec.Key(),
			Cell:   core.FormatCell(cube.Schema, f.Values),
		})
	}
	return out
}

func referenceQueryResponse(cube *core.Cube, a *core.Answer) QueryResponse {
	resp := QueryResponse{
		Op:        a.Query.Op.String(),
		Cells:     make([]CellAnswerJSON, 0, len(a.Cells)),
		Truncated: a.Truncated,
		Skipped:   a.Skipped,
	}
	for _, ca := range a.Cells {
		resp.Cells = append(resp.Cells, RenderCellAnswer(cube, ca))
	}
	return resp
}

func referenceCellResponse(cube *core.Cube, ca core.CellAnswer) CellResponse {
	return CellResponse{
		Cell:      core.FormatCell(cube.Schema, ca.Values),
		PathLevel: ca.Spec.PathLevel,
		Exact:     ca.Exact,
		Source:    renderCellRef(cube, ca.Source),
		Graph:     renderGraph(cube.Schema.Location, ca.Graph),
	}
}

// hostileNames are concept names every escaping rule of encoding/json
// applies to: HTML-significant bytes, quotes and backslashes, control
// bytes, invalid UTF-8, the JavaScript line separators, DEL, non-ASCII and
// the empty string.
var hostileNames = []string{
	"plain", `a<b>&c`, `q"uo\te`, "ctl\x00\x01\n\t\x1f", "bad\xff\xfeutf8", "cut\xe2\x80",
	"sep\u2028\u2029", "del\x7f", "ünïcødé", "", "1<2", "</script>",
}

// randomCube returns a cube carrying only a schema — all the writer reads
// of it — over two item dimensions and a location hierarchy whose concept
// names are hostileNames plus extra (when not already one of them).
func randomCube(rng *rand.Rand, extra string) *core.Cube {
	names := append([]string(nil), hostileNames...)
	names = append(names, extra)
	tree := func(dim string) *hierarchy.Hierarchy {
		h := hierarchy.New(dim)
		for _, n := range names {
			parent := hierarchy.RootName
			if h.Len() > 1 && rng.Intn(2) == 0 {
				parent = h.Name(hierarchy.NodeID(1 + rng.Intn(h.Len()-1)))
			}
			_, _ = h.Add(parent, n) // a duplicate extra is skipped
		}
		return h
	}
	return &core.Cube{Schema: pathdb.MustNewSchema(tree("loc\"ation"), tree("product"), tree("b<r>&nd"))}
}

// durationPool mixes durations whose string order differs from their
// numeric order, negatives, zero and int64 extremes.
var durationPool = []int64{0, 1, 2, 3, 10, 100, 25, -1, -20, 7, math.MaxInt64, math.MinInt64 + 1}

// randomGraph builds a flowgraph over random paths, then skews some nodes'
// distributions with counts large enough to push probabilities into
// exponent form: a node's count, which ends that many more paths there, or
// its durations. It may have no paths, and so no roots. The skewed graph
// would fail Check, so it is written through Columns, which only a test
// may do.
func randomGraph(rng *rand.Rand, loc *hierarchy.Hierarchy) *flowgraph.Graph {
	var paths []pathdb.Path
	for i, n := 0, rng.Intn(8); i < n; i++ {
		p := make(pathdb.Path, 1+rng.Intn(4))
		for j := range p {
			p[j] = pathdb.Stage{
				Location: hierarchy.NodeID(rng.Intn(loc.Len())),
				Duration: durationPool[rng.Intn(len(durationPool))],
			}
		}
		paths = append(paths, p)
	}
	g := flowgraph.FoldPaths(flowgraph.New(loc, pathdb.PathLevel{}), paths)
	f := g.Columns()
	skewed := *f
	skewed.Counts = append([]int64(nil), f.Counts...)
	skewed.DurLo, skewed.Outcomes, skewed.Weights = make([]int32, 0, f.NumNodes()+1), nil, nil
	for i := range f.NumNodes() {
		var d stats.Multinomial
		lo, hi := f.DurLo[i], f.DurLo[i+1]
		if err := d.InitSorted(f.Outcomes[lo:hi], f.Weights[lo:hi]); err != nil {
			panic(err)
		}
		switch rng.Intn(4) {
		case 0:
			skewed.Counts[i] += int64(1) << (20 + rng.Intn(40))
		case 1:
			d.Add(durationPool[rng.Intn(len(durationPool))], int64(1)<<(10+rng.Intn(50)))
		case 2:
			d.Add(int64(rng.Intn(1000)), 0)
		}
		skewed.DurLo = append(skewed.DurLo, int32(len(skewed.Outcomes)))
		skewed.Outcomes, skewed.Weights = d.AppendSorted(skewed.Outcomes, skewed.Weights)
	}
	skewed.DurLo = append(skewed.DurLo, int32(len(skewed.Outcomes)))
	*f = skewed
	return g
}

func randomValues(rng *rand.Rand, schema *pathdb.Schema) []hierarchy.NodeID {
	v := make([]hierarchy.NodeID, len(schema.Dims))
	for d, h := range schema.Dims {
		v[d] = hierarchy.NodeID(rng.Intn(h.Len()))
	}
	return v
}

func randomSpec(rng *rand.Rand, dims int) core.CuboidSpec {
	il := make(core.ItemLevel, dims)
	for d := range il {
		il[d] = rng.Intn(4)
	}
	return core.CuboidSpec{Item: il, PathLevel: rng.Intn(3)}
}

// randomAnswer returns an answer of zero to three cells.
func randomAnswer(rng *rand.Rand, cube *core.Cube) *core.Answer {
	dims := len(cube.Schema.Dims)
	a := &core.Answer{
		Query:     core.Query{Op: core.Op(rng.Intn(5))},
		Truncated: rng.Intn(2) == 0,
		Skipped:   rng.Intn(3),
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		g := randomGraph(rng, cube.Schema.Location)
		ca := core.CellAnswer{
			Spec:       randomSpec(rng, dims),
			Values:     randomValues(rng, cube.Schema),
			Provenance: core.Provenance(rng.Intn(3)),
			Exact:      rng.Intn(2) == 0,
			SourceSpec: randomSpec(rng, dims),
			Source: &core.Cell{
				Values:    randomValues(rng, cube.Schema),
				Count:     g.Paths(),
				Graph:     g,
				Redundant: rng.Intn(3) == 0,
			},
			Graph: g,
		}
		for j, m := 0, rng.Intn(3); j < m; j++ {
			ca.Folded = append(ca.Folded, core.CellRef{Spec: randomSpec(rng, dims), Values: randomValues(rng, cube.Schema)})
		}
		a.Cells = append(a.Cells, ca)
	}
	return a
}

// checkRenderMatchesReference renders a both ways, as /v2/query and as
// /v1/cell of its first cell, and requires identical bytes — including
// from re-indenting RenderQueryResponse, the body the benchmark harness
// times.
func checkRenderMatchesReference(t *testing.T, cube *core.Cube, a *core.Answer) {
	t.Helper()
	got, err := renderAnswer(cube, a, false)
	if err != nil {
		t.Fatal(err)
	}
	again := RenderQueryResponse(cube, a)
	var gotV1 []byte
	if len(a.Cells) > 0 {
		if gotV1, err = renderAnswer(cube, a, true); err != nil {
			t.Fatal(err)
		}
	}
	want, err := json.MarshalIndent(referenceQueryResponse(cube, a), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("/v2/query body diverged from MarshalIndent\ngot:\n%s\nwant:\n%s", got, want)
	}
	if again, err = json.MarshalIndent(again, "", "  "); err != nil {
		t.Fatal(err)
	}
	if string(again) != string(want) {
		t.Fatalf("re-indented RenderQueryResponse diverged\ngot:\n%s\nwant:\n%s", again, want)
	}
	if len(a.Cells) == 0 {
		return
	}
	if want, err = json.MarshalIndent(referenceCellResponse(cube, a.Cells[0]), "", "  "); err != nil {
		t.Fatal(err)
	}
	if string(gotV1) != string(want) {
		t.Fatalf("/v1/cell body diverged from MarshalIndent\ngot:\n%s\nwant:\n%s", gotV1, want)
	}
}

// checkFloatMatchesMarshal requires appendJSONFloat to print what
// json.Marshal prints for f, or to fail with the same message.
func checkFloatMatchesMarshal(t *testing.T, f float64) {
	t.Helper()
	want, wantErr := json.Marshal(f)
	got, err := appendJSONFloat(nil, f)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%v: error %v, json.Marshal %v", f, err, wantErr)
	}
	if err == nil && string(got) != string(want) {
		t.Fatalf("%v: wrote %s, json.Marshal %s", f, got, want)
	}
}

func TestRenderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		cube := randomCube(rng, "")
		checkRenderMatchesReference(t, cube, randomAnswer(rng, cube))
	}

	// The empty multi-cell answer renders "cells": [], a graph without
	// paths "roots": null.
	cube := randomCube(rng, "")
	checkRenderMatchesReference(t, cube, &core.Answer{Query: core.Query{Op: core.OpSlice}, Skipped: 2})
	g := flowgraph.New(cube.Schema.Location, pathdb.PathLevel{})
	checkRenderMatchesReference(t, cube, &core.Answer{Cells: []core.CellAnswer{{
		Values: randomValues(rng, cube.Schema), Source: &core.Cell{Values: randomValues(rng, cube.Schema)}, Graph: g,
	}}})

	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 1e-6, 9.99e-7, 1e-7, 1e-9, 1e-10,
		1e-100, 5e-324, 1e20, 1e21, 1.5e21, 1e100, math.MaxFloat64, -1e-9, -1e21, 123456789.125,
		math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkFloatMatchesMarshal(t, f)
	}
	for i := 0; i < 10000; i++ {
		checkFloatMatchesMarshal(t, math.Float64frombits(rng.Uint64()))
	}
}

// A flowgraph cannot hold a non-finite mean or probability (the
// distributions count in int64), so the error path is driven through the
// writer directly: rendering fails with encoding/json's own error, and the
// body it leaves behind fails to marshal, as the old value did.
func TestRenderNonFiniteFails(t *testing.T) {
	_, wantErr := json.MarshalIndent(NodeJSON{MeanDuration: math.NaN()}, "", "  ")
	w := &answerWriter{}
	w.open('{')
	w.key("mean_duration")
	w.float(math.NaN())
	w.close('}')
	if w.err == nil || wantErr == nil || w.err.Error() != wantErr.Error() {
		t.Fatalf("writer error %v, MarshalIndent error %v", w.err, wantErr)
	}
	if _, err := json.MarshalIndent(json.RawMessage(w.b), "", "  "); err == nil {
		t.Fatalf("the failed body %q marshals", w.b)
	}
}

func FuzzRenderMatchesReference(f *testing.F) {
	f.Add(int64(1), "plain", 0.5)
	f.Add(int64(2), "a <b>\xff", 1e-7)
	f.Add(int64(3), "", 1e21)
	f.Fuzz(func(t *testing.T, seed int64, name string, x float64) {
		rng := rand.New(rand.NewSource(seed))
		cube := randomCube(rng, name)
		checkRenderMatchesReference(t, cube, randomAnswer(rng, cube))
		checkFloatMatchesMarshal(t, x)
	})
}
