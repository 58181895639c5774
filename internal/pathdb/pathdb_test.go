package pathdb_test

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"flowcube/internal/hierarchy"
	"flowcube/internal/pathdb"
)

func testSchema(t *testing.T) (*pathdb.Schema, *hierarchy.Hierarchy, *hierarchy.Hierarchy) {
	t.Helper()
	loc := hierarchy.New("location")
	loc.MustAddPath("transportation", "d")
	loc.MustAddPath("transportation", "t")
	loc.MustAddPath("factory", "f")
	loc.MustAddPath("store", "s")
	loc.MustAddPath("store", "c")
	prod := hierarchy.New("product")
	prod.MustAddPath("clothing", "shoes", "tennis")
	prod.MustAddPath("clothing", "shoes", "sandals")
	return pathdb.MustNewSchema(loc, prod), loc, prod
}

func mkPath(loc *hierarchy.Hierarchy, spec ...any) pathdb.Path {
	var p pathdb.Path
	for i := 0; i < len(spec); i += 2 {
		p = append(p, pathdb.Stage{
			Location: loc.MustLookup(spec[i].(string)),
			Duration: int64(spec[i+1].(int)),
		})
	}
	return p
}

func TestSchemaValidation(t *testing.T) {
	loc := hierarchy.New("loc")
	loc.MustAdd("*", "a")
	d := hierarchy.New("d")
	if _, err := pathdb.NewSchema(nil, d); err == nil {
		t.Errorf("nil location accepted")
	}
	if _, err := pathdb.NewSchema(loc, d, d); err == nil {
		t.Errorf("duplicate dimension accepted")
	}
	if _, err := pathdb.NewSchema(loc, nil); err == nil {
		t.Errorf("nil dimension accepted")
	}
	s, err := pathdb.NewSchema(loc, d)
	if err != nil {
		t.Fatal(err)
	}
	if s.DimIndex("d") != 0 || s.DimIndex("nope") != -1 {
		t.Errorf("DimIndex wrong")
	}
}

func TestAppendValidation(t *testing.T) {
	schema, loc, prod := testSchema(t)
	db := pathdb.New(schema)
	good := pathdb.Record{
		Dims: []hierarchy.NodeID{prod.MustLookup("tennis")},
		Path: mkPath(loc, "f", 1, "s", 2),
	}
	if err := db.Append(good); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	bad := []pathdb.Record{
		{Dims: nil, Path: mkPath(loc, "f", 1)},                                                              // missing dims
		{Dims: []hierarchy.NodeID{prod.MustLookup("tennis")}, Path: nil},                                    // empty path
		{Dims: []hierarchy.NodeID{999}, Path: mkPath(loc, "f", 1)},                                          // bad dim value
		{Dims: []hierarchy.NodeID{prod.MustLookup("shoes")}, Path: mkPath(loc, "f", 1)},                     // interior concept
		{Dims: []hierarchy.NodeID{hierarchy.Root}, Path: mkPath(loc, "f", 1)},                               // the root is interior too
		{Dims: []hierarchy.NodeID{prod.MustLookup("tennis")}, Path: pathdb.Path{{99, 1}}},                   // bad location
		{Dims: []hierarchy.NodeID{prod.MustLookup("tennis")}, Path: pathdb.Path{{loc.MustLookup("f"), -1}}}, // negative duration
	}
	for i, r := range bad {
		if err := db.Append(r); err == nil {
			t.Errorf("bad record %d accepted", i)
		}
	}
	if db.Len() != 1 {
		t.Errorf("db.Len = %d, want 1", db.Len())
	}
}

func TestAggregatePathMergesRuns(t *testing.T) {
	_, loc, _ := testSchema(t)
	p := mkPath(loc, "f", 10, "d", 2, "t", 1, "s", 5, "c", 0)
	level := pathdb.PathLevel{Cut: hierarchy.LevelCut(loc, 1), Time: pathdb.TimeBase}
	agg := pathdb.AggregatePath(p, level, nil)
	if len(agg) != 3 {
		t.Fatalf("aggregated length = %d, want 3 (factory, transportation, store)", len(agg))
	}
	want := []struct {
		name string
		dur  int64
	}{{"factory", 10}, {"transportation", 3}, {"store", 5}}
	for i, w := range want {
		if agg[i].Location != loc.MustLookup(w.name) || agg[i].Duration != w.dur {
			t.Errorf("stage %d = (%s,%d), want (%s,%d)",
				i, loc.Name(agg[i].Location), agg[i].Duration, w.name, w.dur)
		}
	}
}

func TestAggregatePathCustomMerge(t *testing.T) {
	_, loc, _ := testSchema(t)
	p := mkPath(loc, "d", 2, "t", 4)
	level := pathdb.PathLevel{Cut: hierarchy.LevelCut(loc, 1), Time: pathdb.TimeBase}
	maxMerge := func(ds []int64) int64 {
		m := ds[0]
		for _, d := range ds[1:] {
			if d > m {
				m = d
			}
		}
		return m
	}
	agg := pathdb.AggregatePath(p, level, maxMerge)
	if len(agg) != 1 || agg[0].Duration != 4 {
		t.Errorf("max merge = %v, want single stage duration 4", agg)
	}
}

func TestAggregateIdentityLevel(t *testing.T) {
	_, loc, _ := testSchema(t)
	p := mkPath(loc, "f", 10, "d", 2, "s", 5)
	level := pathdb.PathLevel{Cut: hierarchy.LevelCut(loc, loc.Depth()), Time: pathdb.TimeBase}
	agg := pathdb.AggregatePath(p, level, nil)
	if !slices.Equal(agg, p) {
		t.Errorf("identity aggregation changed the path: %v", agg)
	}
}

func TestTimeLevels(t *testing.T) {
	if pathdb.TimeBase.Apply(17) != 17 {
		t.Errorf("TimeBase must be identity")
	}
	if pathdb.TimeAny.Apply(17) != 0 {
		t.Errorf("TimeAny must collapse durations")
	}
	grain := pathdb.TimeLevel{Grain: 5}
	if grain.Apply(17) != 15 || grain.Apply(4) != 0 {
		t.Errorf("grain-5 bucketing wrong: %d %d", grain.Apply(17), grain.Apply(4))
	}
	if pathdb.TimeBase.Key() == pathdb.TimeAny.Key() || grain.Key() == pathdb.TimeBase.Key() {
		t.Errorf("time level keys collide")
	}
}

func TestPathLevelKeyDistinguishes(t *testing.T) {
	_, loc, _ := testSchema(t)
	leaf := hierarchy.LevelCut(loc, loc.Depth())
	up := hierarchy.LevelCut(loc, 1)
	keys := map[string]bool{}
	for _, pl := range []pathdb.PathLevel{
		{Cut: leaf, Time: pathdb.TimeBase},
		{Cut: leaf, Time: pathdb.TimeAny},
		{Cut: up, Time: pathdb.TimeBase},
		{Cut: up, Time: pathdb.TimeAny},
	} {
		keys[pl.Key()] = true
	}
	if len(keys) != 4 {
		t.Errorf("path level keys collide: %v", keys)
	}
}

func TestIORoundTrip(t *testing.T) {
	schema, loc, prod := testSchema(t)
	db := pathdb.New(schema)
	db.MustAppend(pathdb.Record{
		Dims: []hierarchy.NodeID{prod.MustLookup("tennis")},
		Path: mkPath(loc, "f", 10, "d", 2, "s", 5),
	})
	db.MustAppend(pathdb.Record{
		Dims: []hierarchy.NodeID{prod.MustLookup("sandals")},
		Path: mkPath(loc, "f", 3, "c", 0),
	})
	var sb strings.Builder
	if _, err := db.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := pathdb.Read(strings.NewReader(sb.String()), schema)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != db.Len() {
		t.Fatalf("round trip lost records: %d vs %d", back.Len(), db.Len())
	}
	for i := range db.Records {
		if !slices.Equal(back.Records[i].Path, db.Records[i].Path) {
			t.Errorf("record %d path mismatch", i)
		}
		for d := range db.Records[i].Dims {
			if back.Records[i].Dims[d] != db.Records[i].Dims[d] {
				t.Errorf("record %d dim %d mismatch", i, d)
			}
		}
	}
}

func TestReadErrors(t *testing.T) {
	schema, _, _ := testSchema(t)
	cases := []string{
		"tennis f:10",         // missing separator
		"tennis,extra|f:10",   // wrong dim count
		"nosuch|f:10",         // unknown dim value
		"tennis|nosuch:10",    // unknown location
		"tennis|f:notanumber", // bad duration
		"tennis|f10",          // bad stage syntax
	}
	for _, c := range cases {
		if _, err := pathdb.Read(strings.NewReader(c+"\n"), schema); err == nil {
			t.Errorf("malformed line %q accepted", c)
		}
	}
	// Comments and blank lines are fine.
	ok := "# header\n\ntennis|f:10 s:2\n"
	db, err := pathdb.Read(strings.NewReader(ok), schema)
	if err != nil || db.Len() != 1 {
		t.Errorf("comment handling broken: %v", err)
	}
}

func TestPathHelpers(t *testing.T) {
	_, loc, _ := testSchema(t)
	p := mkPath(loc, "f", 10, "d", 2)
	if s := p.String(loc); s != "(f,10)(d,2)" {
		t.Errorf("String = %q", s)
	}
}

// Property: aggregating an already-aggregated path at the same level is
// the identity (idempotence), and aggregation never lengthens a path.
func TestAggregateIdempotentProperty(t *testing.T) {
	loc := hierarchy.Generate("loc", 3, 3)
	leaves := loc.Leaves()
	levels := []pathdb.PathLevel{
		{Cut: hierarchy.LevelCut(loc, 2), Time: pathdb.TimeBase},
		{Cut: hierarchy.LevelCut(loc, 1), Time: pathdb.TimeBase},
		{Cut: hierarchy.LevelCut(loc, 1), Time: pathdb.TimeAny},
	}
	f := func(locIdx []uint8, durs []uint8, levelIdx uint8) bool {
		n := len(locIdx)
		if len(durs) < n {
			n = len(durs)
		}
		if n == 0 {
			return true
		}
		var p pathdb.Path
		for i := 0; i < n; i++ {
			l := leaves[int(locIdx[i])%len(leaves)]
			if len(p) > 0 && p[len(p)-1].Location == l {
				continue // keep the consecutive-distinct invariant
			}
			p = append(p, pathdb.Stage{Location: l, Duration: int64(durs[i] % 20)})
		}
		if len(p) == 0 {
			return true
		}
		level := levels[int(levelIdx)%len(levels)]
		once := pathdb.AggregatePath(p, level, nil)
		twice := pathdb.AggregatePath(once, level, nil)
		return slices.Equal(twice, once) && len(once) <= len(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: total duration is preserved by aggregation under the default
// (summing) merge at TimeBase — merging only redistributes stage boundaries.
func TestAggregatePreservesTotalDurationProperty(t *testing.T) {
	loc := hierarchy.Generate("loc", 3, 3)
	leaves := loc.Leaves()
	level := pathdb.PathLevel{Cut: hierarchy.LevelCut(loc, 1), Time: pathdb.TimeBase}
	f := func(locIdx []uint8, durs []uint8) bool {
		n := len(locIdx)
		if len(durs) < n {
			n = len(durs)
		}
		var p pathdb.Path
		for i := 0; i < n; i++ {
			l := leaves[int(locIdx[i])%len(leaves)]
			if len(p) > 0 && p[len(p)-1].Location == l {
				continue
			}
			p = append(p, pathdb.Stage{Location: l, Duration: int64(durs[i] % 20)})
		}
		var want, got int64
		for _, st := range p {
			want += st.Duration
		}
		for _, st := range pathdb.AggregatePath(p, level, nil) {
			got += st.Duration
		}
		return want == got
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: coarse-of-fine equals coarse-of-raw — aggregating to a coarse
// cut via an intermediate finer cut gives the same location sequence as
// aggregating directly (durations also agree under the summing merge).
func TestAggregateCommutesProperty(t *testing.T) {
	loc := hierarchy.Generate("loc", 3, 3)
	leaves := loc.Leaves()
	fine := pathdb.PathLevel{Cut: hierarchy.LevelCut(loc, 2), Time: pathdb.TimeBase}
	coarse := pathdb.PathLevel{Cut: hierarchy.LevelCut(loc, 1), Time: pathdb.TimeBase}
	f := func(locIdx []uint8, durs []uint8) bool {
		n := len(locIdx)
		if len(durs) < n {
			n = len(durs)
		}
		var p pathdb.Path
		for i := 0; i < n; i++ {
			l := leaves[int(locIdx[i])%len(leaves)]
			if len(p) > 0 && p[len(p)-1].Location == l {
				continue
			}
			p = append(p, pathdb.Stage{Location: l, Duration: int64(durs[i] % 20)})
		}
		direct := pathdb.AggregatePath(p, coarse, nil)
		viaFine := pathdb.AggregatePath(pathdb.AggregatePath(p, fine, nil), coarse, nil)
		return slices.Equal(direct, viaFine)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
