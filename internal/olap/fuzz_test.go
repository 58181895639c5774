package olap

import (
	"context"
	"net/url"
	"testing"
)

// FuzzParseQuery drives arbitrary /v2/query parameter strings through
// ParseQuery and, when they parse, through Answer: parsing must reject
// cleanly or produce a query the engine answers without panicking. The cube
// is the running example with half its cuboids dropped, so the
// computed-cell path is reachable from fuzzed input too.
func FuzzParseQuery(f *testing.F) {
	_, cube := buildPaperCube(f)
	dropRandom(cube, 1)
	seeds := []string{
		"",
		"op=cell&cell=product=shoes,brand=nike&pathlevel=1",
		"op=cell&cell=product=sandals,brand=nike",
		"op=rollup&cell=product=shoes,brand=nike&dim=product",
		"op=drilldown&cell=product=shoes&dim=brand&max=2",
		"op=slice&select=brand=nike",
		"op=dice&cell=product=shoes&select=brand=nike,product=shoes&max=3",
		"op=cell&cell=product=outerwear&nocompute=1",
		"op=pivot",
		"cell=product%3Dbogus",
		"pathlevel=-1",
		"select=brand",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		params, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		q, err := ParseQuery(cube, params)
		if err != nil {
			return
		}
		a, err := cube.Answer(context.Background(), q)
		if err == nil && a == nil {
			t.Fatal("nil answer without error")
		}
	})
}
