package paperex_test

import (
	"slices"
	"testing"

	"flowcube/internal/paperex"
	"flowcube/internal/pathdb"
)

func TestFixtureShape(t *testing.T) {
	ex := paperex.New()
	if ex.DB.Len() != 8 {
		t.Fatalf("Table 1 has 8 records, fixture has %d", ex.DB.Len())
	}
	if ex.Product.Depth() != 3 || ex.Brand.Depth() != 2 || ex.Location.Depth() != 2 {
		t.Errorf("hierarchy depths: product=%d brand=%d location=%d",
			ex.Product.Depth(), ex.Brand.Depth(), ex.Location.Depth())
	}
	// Record 1 is (tennis, nike, (f,10)(d,2)(t,1)(s,5)(c,0)).
	r := ex.DB.Records[0]
	if ex.Product.Name(r.Dims[0]) != "tennis" || ex.Brand.Name(r.Dims[1]) != "nike" {
		t.Errorf("record 1 dims wrong")
	}
	if got := r.Path.String(ex.Location); got != "(f,10)(d,2)(t,1)(s,5)(c,0)" {
		t.Errorf("record 1 path = %s", got)
	}
}

func TestViews(t *testing.T) {
	ex := paperex.New()

	base := ex.BasePathLevel()
	p := ex.DB.Records[0].Path
	if !slices.Equal(pathdb.AggregatePath(p, base, nil), p) {
		t.Errorf("base level must be the identity")
	}

	// Transportation view (§4.1): path 1 keeps d, t, w at detail, folds
	// f into factory and s,c into store.
	tv := ex.TransportPathLevel()
	agg := pathdb.AggregatePath(p, tv, nil)
	if got := agg.String(ex.Location); got != "(factory,10)(d,2)(t,1)(store,5)" {
		t.Errorf("transport view of path 1 = %s", got)
	}
	// Path 6 (f,10)(t,1)(w,5): warehouse survives aggregation.
	agg6 := pathdb.AggregatePath(ex.DB.Records[5].Path, tv, nil)
	if got := agg6.String(ex.Location); got != "(factory,10)(t,1)(w,5)" {
		t.Errorf("transport view of path 6 = %s", got)
	}

	// Store view (Figure 1 top): in-store locations at detail,
	// transportation collapsed.
	sv := ex.StorePathLevel()
	aggS := pathdb.AggregatePath(p, sv, nil)
	if got := aggS.String(ex.Location); got != "(factory,10)(transportation,3)(s,5)(c,0)" {
		t.Errorf("store view of path 1 = %s", got)
	}
}
