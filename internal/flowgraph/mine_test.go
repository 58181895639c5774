package flowgraph_test

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"flowcube/internal/flowgraph"
	"flowcube/internal/hierarchy"
	"flowcube/internal/pathdb"
)

// sameColumns reports the first column in which a and b differ, or nil:
// slices element for element (an empty column equals a nil one), floats bit
// for bit.
func sameColumns(a, b *flowgraph.Flat) error {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := range va.NumField() {
		x, y := va.Field(i), vb.Field(i)
		equal := false
		switch xs := x.Interface().(type) {
		case []float64:
			equal = slices.EqualFunc(xs, y.Interface().([]float64), func(p, q float64) bool {
				return math.Float64bits(p) == math.Float64bits(q)
			})
		default:
			equal = (x.Kind() == reflect.Slice && x.Len() == 0 && y.Len() == 0) || reflect.DeepEqual(x.Interface(), y.Interface())
		}
		if !equal {
			return fmt.Errorf("%s holds %v, want %v", va.Type().Field(i).Name, x.Interface(), y.Interface())
		}
	}
	return nil
}

// mineInputs decodes a re-mine from data: a base of paths a graph holds
// and mines, and a batch appended to it and re-mined. The first byte picks
// ε (0, 0.1 or 0.3), δ (1 to 3) and whether the batch only repeats
// prefixes the base holds — FoldPaths then splices it into the base's shape
// columns — or is drawn freely, so the fold may add prefixes and shift node
// indices. Each following group of bytes is one path of up to four stages
// over four leaves with durations 0 to 2, into the base or the batch; a
// repeating batch path follows the locations of a base path, cut to its
// length.
func mineInputs(data []byte) (level pathdb.PathLevel, base, batch []pathdb.Path, repeat bool, opt flowgraph.ExceptionOptions) {
	level = pathdb.PathLevel{Cut: hierarchy.LevelCut(similarityLocations, 1), Time: pathdb.TimeBase}
	opt = flowgraph.ExceptionOptions{Eps: 0.1, MinCount: 1}
	if len(data) == 0 {
		return level, nil, nil, false, opt
	}
	locs := similarityLocations.Leaves()[:4]
	opt.Eps = []float64{0, 0.1, 0.3}[data[0]%3]
	opt.MinCount = int64(data[0]>>2)%3 + 1
	repeat = data[0]&0x40 != 0
	for data = data[1:]; len(data) >= 2; {
		head, n := data[0], int(data[1]%4)+1
		data = data[2:]
		n = min(n, len(data))
		toBatch := head&1 != 0
		p := make(pathdb.Path, n)
		for i, s := range data[:n] {
			p[i] = pathdb.Stage{Location: locs[int(s)%len(locs)], Duration: int64(s>>4) % 3}
		}
		data = data[n:]
		if toBatch && repeat {
			if len(base) == 0 {
				continue
			}
			from := base[int(head>>1)%len(base)]
			p = p[:min(len(p), len(from))]
			for i := range p {
				p[i].Location = from[i].Location
			}
		}
		p = pathdb.AggregatePath(p, level, nil)
		if toBatch {
			batch = append(batch, p)
		} else {
			base = append(base, p)
		}
	}
	return level, base, batch, repeat, opt
}

// stageConds returns the distinct single-stage conditions of paths, and
// the two-stage ones pinning their first two stages, that no condition in
// have already names, adding them to have.
func stageConds(paths []pathdb.Path, have map[string]bool) [][]flowgraph.StagePin {
	var out [][]flowgraph.StagePin
	add := func(c []flowgraph.StagePin) {
		if k := fmt.Sprint(c); !have[k] {
			have[k] = true
			out = append(out, c)
		}
	}
	for _, p := range paths {
		for i, st := range p {
			add([]flowgraph.StagePin{{Depth: i + 1, Location: st.Location, Duration: st.Duration}})
		}
		if len(p) >= 2 {
			add([]flowgraph.StagePin{
				{Depth: 1, Location: p[0].Location, Duration: p[0].Duration},
				{Depth: 2, Location: p[1].Location, DurAny: true},
			})
		}
	}
	return out
}

// mineSeeds are the fuzz corpus: a base alone, batches that repeat base
// prefixes with durations the base has and has not, free batches that add
// prefixes under existing and new first stages, and each at ε 0 and with δ
// above one. The last three bases mine exceptions under two first stages,
// and their batches move one of them — spliced, or with a new first stage
// before both that shifts every index — so the other's are carried over.
var mineSeeds = [][]byte{
	{},
	{1, 0, 3, 1, 2, 3, 0, 2, 1, 0x12, 0, 3, 1, 0x22, 3},
	{0x41, 0, 3, 1, 2, 3, 0, 3, 1, 0x12, 3, 2, 3, 1, 0x12, 3, 1, 2, 0x21, 0x12, 0x13},
	{0x44, 0, 3, 0, 1, 2, 2, 2, 0, 1, 0, 2, 0x10, 0x11, 0x12, 1, 3, 0x20, 0x21, 0x22, 3, 2, 5, 5},
	{0x05, 0, 2, 1, 2, 0, 2, 1, 0x12, 1, 3, 1, 0x12, 3, 1, 2, 3, 3, 0, 2, 0x30},
	{0x09, 2, 3, 0, 1, 2, 2, 3, 0, 0x11, 0x12, 0, 1, 3, 0x10, 1, 1, 3, 3, 0x21, 0x21, 0x21},
	{0x40, 0, 4, 0, 1, 2, 3, 0, 4, 0x10, 1, 2, 3, 1, 2, 0x20, 0x21, 3, 4, 0x10, 0x11, 0x12, 0x13, 5, 1, 0x13},
	{0x00, 0, 1, 1, 2, 0, 1, 1, 2, 0, 1, 0x11, 3, 0, 1, 2, 1, 0, 1, 2, 1, 0, 1, 0x12, 3, 1, 0, 0, 1, 1, 0x11, 3},
	{0x40, 0, 1, 1, 2, 0, 1, 1, 2, 0, 1, 0x11, 3, 0, 1, 2, 1, 0, 1, 2, 1, 0, 1, 0x12, 3, 5, 1, 0x11, 3},
	{0x05, 0, 1, 1, 2, 0, 1, 1, 2, 0, 1, 0x11, 3, 0, 1, 2, 1, 0, 1, 2, 1, 0, 1, 0x12, 3, 1, 0, 0, 1, 1, 1, 2},
}

// FuzzMineExceptionsMatchesReference: the column miner's graph equals,
// column for column, the tree miner's laid out by a walk of the tree —
// from scratch, and re-mined after an append whose batch only repeats the
// base's prefixes (FoldPaths splices it into the base's shape) and after
// one drawn freely (the general fold, which may shift node indices), with
// the base's exceptions carried over at the nodes the batch did not move.
// The two count the same moved nodes, the re-mine equals the mine from
// scratch, and neither the mined base nor the folded graph changes.
func FuzzMineExceptionsMatchesReference(f *testing.F) {
	for _, seed := range mineSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		level, base, batch, repeat, opt := mineInputs(data)
		all := slices.Concat(base, batch)
		have := map[string]bool{}
		old, fresh := stageConds(base, have), stageConds(batch, have)
		conds := slices.Concat(old, fresh)

		ref := flowgraph.NewRef()
		for _, p := range all {
			ref.Add(p)
		}
		ref.MineExceptions(all, len(all), conds, nil, opt)
		want := ref.Flat()
		scratch, moved := flowgraph.New(similarityLocations, level).MineExceptions(nil, all, len(all), nil, nil, opt)
		if moved != 0 || len(scratch.Columns().ExcNode) != 0 {
			t.Fatalf("a mine of an empty graph with no condition moved %d nodes", moved)
		}
		scratch, moved = flowgraph.Build(similarityLocations, level, all, nil).MineExceptions(nil, all, len(all), conds, nil, opt)
		if err := sameColumns(scratch.Columns(), want); err != nil || moved != 0 {
			t.Fatalf("from scratch: %v (%d moved nodes)", err, moved)
		}

		ref = flowgraph.NewRef()
		for _, p := range base {
			ref.Add(p)
		}
		ref.MineExceptions(base, len(base), old, nil, opt)
		prevWant := ref.Flat()
		for _, p := range batch {
			ref.Add(p)
		}
		wantMoved := ref.MineExceptions(all, len(batch), old, fresh, opt)
		want = ref.Flat()
		prev, _ := flowgraph.Build(similarityLocations, level, base, nil).MineExceptions(nil, base, len(base), old, nil, opt)
		if err := sameColumns(prev.Columns(), prevWant); err != nil {
			t.Fatalf("the base: %v", err)
		}
		g := flowgraph.FoldPaths(prev, slices.Clone(batch))
		if repeat && len(batch) > 0 && &g.Columns().Locations[0] != &prev.Columns().Locations[0] {
			t.Fatal("a batch of the base's prefixes was not spliced into its shape")
		}
		got, moved := g.MineExceptions(prev, all, len(batch), old, fresh, opt)
		if err := sameColumns(got.Columns(), want); err != nil || moved != wantMoved {
			t.Fatalf("re-mined: %v (%d moved nodes, the reference %d)", err, moved, wantMoved)
		}
		if err := sameColumns(got.Columns(), scratch.Columns()); err != nil {
			t.Fatalf("the re-mine differs from the mine from scratch: %v", err)
		}
		if err := sameColumns(prev.Columns(), prevWant); err != nil || len(g.Columns().ExcNode) != 0 {
			t.Fatalf("the re-mine wrote to its inputs: %v", err)
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}
