package flowgraph

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"flowcube/internal/hierarchy"
	"flowcube/internal/pathdb"
)

// Fold returns the exact associative fold of graphs: a new graph holding
// the union of every input's path observations (paper Lemma 4.2 — duration
// and transition distributions are algebraic, so the result is independent
// of fold order and column for column the graph of the concatenated paths).
// Exceptions are holistic (Lemma 4.3) and cannot be folded; the result
// carries none. Inputs are read as columns and not modified; the result may
// share the first input's shape and outcome columns, which never change.
//
// It is the one kernel that makes a graph's nodes: Build folds paths into
// an empty graph (FoldPaths), an append folds each touched cell with its
// batch, and core.Answer folds materialized descendants into a
// non-materialized cell. It is safe for concurrent use.
func Fold(graphs []*Graph) (*Graph, error) { return fold(graphs, nil) }

// FoldPaths returns g with paths already aggregated to its level added, as
// an append adds its batch to a cell, laying the paths out as columns in
// scratch the next fold reuses. It sorts paths (the slice) in place.
func FoldPaths(g *Graph, paths []pathdb.Path) *Graph {
	f, _ := fold([]*Graph{g}, paths) // the paths' graph is at g's level
	return f
}

// boxed is a graph and its columns, allocated together.
type boxed struct {
	g Graph
	f Flat
}

// source is one input node folded into an output node: node i of input k.
type source struct{ k, i int32 }

// foldScratch is a fold's working memory, kept for the next fold: the
// inputs' columns, the merge's node tables and splice's node map, and
// FoldPaths' batch graph and the arenas its columns are carved out of.
type foldScratch struct {
	in                                      []*Flat
	srcs                                    []source
	srcLo, locs, childLo, pos, end, at, a32 []int32
	a64                                     []int64
	batch                                   boxed
}

var foldScratches = sync.Pool{New: func() any { return new(foldScratch) }}

// fold folds graphs and, unless it is nil, the graph of paths at the first
// graph's level.
func fold(graphs []*Graph, paths []pathdb.Path) (*Graph, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("flowgraph: fold of zero graphs")
	}
	s := foldScratches.Get().(*foldScratch)
	defer func() {
		clear(s.in) // the pool must not keep the inputs alive
		s.in, s.batch = s.in[:0], boxed{}
		foldScratches.Put(s)
	}()
	first := graphs[0]
	if paths != nil {
		s.batch.g = Graph{level: first.level, loc: first.loc}
		s.lay(paths)
		graphs = append(graphs, &s.batch.g)
	}
	r := &boxed{g: Graph{level: first.level, loc: first.loc}}
	var total int64
	for _, g := range graphs {
		if g.level != first.level && g.level.Key() != first.level.Key() {
			return nil, fmt.Errorf("flowgraph: cannot fold graphs at different path levels %q and %q",
				first.level.Key(), g.level.Key())
		}
		s.in = append(s.in, g.cols)
		total += g.cols.Paths
	}
	s.fold(&r.f)
	r.f.Paths, r.g.cols = total, &r.f
	return &r.g, nil
}

// fold merges the columns of s.in breadth first into out. Each output node
// is the set of input nodes at one prefix, its sources: the roots make the
// root, and an output node's children are its sources' child ranges merged
// by location, so the output is in BFS order with children sorted by
// location. Counts add and duration runs merge by
// outcome. Every input node is the source of exactly one output node, so
// the input node total bounds the scratch. The columns are exact-sized.
func (s *foldScratch) fold(out *Flat) {
	in := s.in
	if len(in) == 2 && s.splice(out) {
		return
	}
	total := 0
	for _, f := range in {
		total += f.NumNodes()
	}
	srcs := slices.Grow(s.srcs[:0], total)
	for k := range in {
		srcs = append(srcs, source{int32(k), 0})
	}
	// Output node j's sources are srcs[srcLo[j]:srcLo[j+1]]; srcs never
	// outgrows its capacity, so ss stays a view of it.
	srcLo := append(slices.Grow(s.srcLo[:0], total+1), 0, int32(len(in)))
	locs := append(slices.Grow(s.locs[:0], total), int32(hierarchy.Root))
	childLo := slices.Grow(s.childLo[:0], total+1)
	pos, end := slices.Grow(s.pos[:0], len(in))[:len(in)], slices.Grow(s.end[:0], len(in))[:len(in)]
	for j := 0; j < len(locs); j++ {
		childLo = append(childLo, int32(len(locs)))
		ss := srcs[srcLo[j]:srcLo[j+1]]
		for x, s := range ss {
			pos[x], end[x] = in[s.k].ChildLo[s.i], in[s.k].ChildLo[s.i+1]
		}
		for {
			next, ok := int32(0), false
			for x, s := range ss {
				if pos[x] < end[x] {
					if l := in[s.k].Locations[pos[x]]; !ok || l < next {
						next, ok = l, true
					}
				}
			}
			if !ok {
				break
			}
			locs = append(locs, next)
			for x, s := range ss {
				if pos[x] < end[x] && in[s.k].Locations[pos[x]] == next {
					srcs = append(srcs, source{s.k, pos[x]})
					pos[x]++
				}
			}
			srcLo = append(srcLo, int32(len(srcs)))
		}
	}
	n := len(locs)
	childLo = append(childLo, int32(n))
	s.srcs, s.srcLo, s.locs, s.childLo, s.pos, s.end = srcs, srcLo, locs, childLo, pos, end

	lc := make([]int32, 2*n+1)
	out.Locations, out.ChildLo = lc[:n:n], lc[n:]
	copy(out.Locations, locs)
	copy(out.ChildLo, childLo)
	outcomes := 0
	for j := range n {
		outcomes += mergeDurations(in, srcs[srcLo[j]:srcLo[j+1]], pos, end, nil, nil)
	}
	cw := make([]int64, n+outcomes)
	out.Counts, out.Weights = cw[:n:n], cw[n:]
	out.DurLo, out.Outcomes = make([]int32, n+1), make([]int64, outcomes)
	at := 0
	for j := range n {
		for _, s := range srcs[srcLo[j]:srcLo[j+1]] {
			out.Counts[j] += in[s.k].Counts[s.i]
		}
		out.DurLo[j] = int32(at)
		at += mergeDurations(in, srcs[srcLo[j]:srcLo[j+1]], pos, end, out.Outcomes[at:], out.Weights[at:])
	}
	out.DurLo[n] = int32(at)
}

// splice is fold of two inputs a and b when every prefix of b is one a has
// too — an append whose batch repeats paths a cell holds, most appends to a
// cell — and reports false, writing nothing, when b has one a lacks. b's
// nodes map into a's breadth first, node i to node at[i], in ascending
// order: the output shares a's shape, and its outcome columns too when b
// brings no duration a lacks at a mapped node, and copies a's pool in spans
// between the mapped nodes, whose runs merge with b's.
func (s *foldScratch) splice(out *Flat) bool {
	a, b := s.in[0], s.in[1]
	at := append(s.at[:0], 0)
	defer func() { s.at = at }()
	for i := range b.NumNodes() {
		p, e := a.ChildLo[at[i]], a.ChildLo[at[i]+1]
		for c := b.ChildLo[i]; c < b.ChildLo[i+1]; c++ {
			for p < e && a.Locations[p] < b.Locations[c] {
				p++
			}
			if p == e || a.Locations[p] != b.Locations[c] {
				return false
			}
			at = append(at, p)
		}
	}
	pos, end := slices.Grow(s.pos[:0], 2)[:2], slices.Grow(s.end[:0], 2)[:2]
	s.pos, s.end = pos, end
	pair := func(i int) []source { return []source{{0, at[i]}, {1, int32(i)}} }
	n, extra := a.NumNodes(), 0
	for i, ai := range at {
		extra += mergeDurations(s.in, pair(i), pos, end, nil, nil) - int(a.DurLo[ai+1]-a.DurLo[ai])
	}
	cw := make([]int64, n+len(a.Outcomes)+extra)
	*out = Flat{Locations: a.Locations, ChildLo: a.ChildLo, DurLo: a.DurLo, Outcomes: a.Outcomes,
		Counts: cw[:n:n], Weights: cw[n:]}
	copy(out.Counts, a.Counts)
	if extra > 0 {
		out.DurLo, out.Outcomes = make([]int32, n+1), make([]int64, len(a.Outcomes)+extra)
	}
	shift, from := int32(0), int32(0)
	for i := 0; ; i++ {
		next := int32(n)
		if i < len(at) {
			next = at[i]
		}
		lo, hi := a.DurLo[from], a.DurLo[next]
		copy(out.Weights[lo+shift:], a.Weights[lo:hi])
		if extra > 0 {
			copy(out.Outcomes[lo+shift:], a.Outcomes[lo:hi])
			for j := from; j <= next; j++ {
				out.DurLo[j] = a.DurLo[j] + shift
			}
		}
		if i == len(at) {
			return true
		}
		out.Counts[next] += b.Counts[i]
		var o []int64 // a's shared pool takes no outcome
		if extra > 0 {
			o = out.Outcomes[hi+shift:]
		}
		shift += int32(mergeDurations(s.in, pair(i), pos, end, o, out.Weights[hi+shift:])) - (a.DurLo[next+1] - hi)
		from = next + 1
	}
}

// mergeDurations merges the duration runs of one output node's sources by
// outcome, adding the weights of an outcome several hold, into weights and,
// when it is not nil, outcomes, and returns how many outcomes the merge
// has; with nil weights it only counts. pos and end are scratch of at least
// len(ss).
func mergeDurations(in []*Flat, ss []source, pos, end []int32, outcomes, weights []int64) int {
	for x, s := range ss {
		pos[x], end[x] = in[s.k].DurLo[s.i], in[s.k].DurLo[s.i+1]
	}
	m := 0
	for ; ; m++ {
		next, ok := int64(0), false
		for x, s := range ss {
			if pos[x] < end[x] {
				if o := in[s.k].Outcomes[pos[x]]; !ok || o < next {
					next, ok = o, true
				}
			}
		}
		if !ok {
			return m
		}
		var w int64
		for x, s := range ss {
			if pos[x] < end[x] && in[s.k].Outcomes[pos[x]] == next {
				w += in[s.k].Weights[pos[x]]
				pos[x]++
			}
		}
		if weights != nil {
			weights[m] = w
		}
		if outcomes != nil {
			outcomes[m] = next
		}
	}
}

// lay lays paths already aggregated to the batch graph's level out as its
// columns, straight from their sorted order: sorted by location sequence,
// the paths that share a prefix of length d are consecutive, and those
// prefixes come in the order the graph's BFS keeps the nodes of depth d in.
// Empty paths add nothing. It sorts paths —
// the slice, not the stages — in place. The columns are carved out of the
// scratch arenas, sized for the paths' stages.
func (s *foldScratch) lay(paths []pathdb.Path) {
	slices.SortFunc(paths, func(a, b pathdb.Path) int {
		return slices.CompareFunc(a, b, func(x, y pathdb.Stage) int { return cmp.Compare(x.Location, y.Location) })
	})
	r := &s.batch
	stages, depth := 0, 0
	f := &r.f
	f.Paths = 0
	for _, p := range paths {
		stages += len(p)
		depth = max(depth, len(p))
		if len(p) > 0 {
			f.Paths++
		}
	}
	// parent[j] is node j's parent, and node[p] path p's node at the depth
	// before the one being laid out.
	n32, n64 := 4*stages+6+len(paths), 3*stages+1+len(paths)
	s.a32, s.a64 = slices.Grow(s.a32[:0], n32)[:n32], slices.Grow(s.a64[:0], n64)[:n64]
	arena32, arena64 := s.a32, s.a64
	f.Locations = append(carve(&arena32, stages+1), int32(hierarchy.Root))
	f.DurLo = append(carve(&arena32, stages+2), 0, 0)
	f.ChildLo = carve(&arena32, stages+2)
	parent := append(carve(&arena32, stages+1), 0)
	node := carve(&arena32, len(paths))[:len(paths)]
	clear(node)
	f.Counts = append(carve(&arena64, stages+1), 0)
	f.Outcomes, f.Weights = carve(&arena64, stages), carve(&arena64, stages)
	durs := carve(&arena64, len(paths))
	for d := 0; d < depth; d++ {
		for lo := 0; lo < len(paths); {
			if len(paths[lo]) <= d {
				lo++
				continue
			}
			hi := lo + 1
			for hi < len(paths) && len(paths[hi]) > d && node[hi] == node[lo] &&
				paths[hi][d].Location == paths[lo][d].Location {
				hi++
			}
			id := int32(len(f.Locations))
			f.Locations = append(f.Locations, int32(paths[lo][d].Location))
			f.Counts = append(f.Counts, int64(hi-lo))
			parent = append(parent, node[lo])
			durs = durs[:0]
			for p := lo; p < hi; p++ {
				durs = append(durs, paths[p][d].Duration)
				node[p] = id
			}
			slices.Sort(durs)
			for x := 0; x < len(durs); {
				y := x
				for x < len(durs) && durs[x] == durs[y] {
					x++
				}
				f.Outcomes = append(f.Outcomes, durs[y])
				f.Weights = append(f.Weights, int64(x-y))
			}
			f.DurLo = append(f.DurLo, int32(len(f.Outcomes)))
			lo = hi
		}
	}
	// Parents ascend in BFS order, so node i's children start at the first
	// node whose parent is not below i.
	n := int32(len(f.Locations))
	f.ChildLo = f.ChildLo[:n+1]
	j := int32(1)
	for i := int32(0); i < n; i++ {
		for j < n && parent[j] < i {
			j++
		}
		f.ChildLo[i] = j
	}
	f.ChildLo[n] = n
	r.g.cols = f
}

// carve cuts an empty slice of capacity n off the front of the arena.
func carve[T any](arena *[]T, n int) []T {
	a := *arena
	*arena = a[n:]
	return a[:0:n]
}
