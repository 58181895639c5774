package main

import (
	"context"
	"reflect"
	"testing"
)

// firstURLs draws the first n requests of a stream.
func firstURLs(st *stream, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = st.next().url
	}
	return out
}

func TestStreamsArePureFunctionsOfSeedAndRole(t *testing.T) {
	sc := scales["smoke"]
	in, err := buildServeInputs(context.Background(), sc, 1, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	ing, err := buildIngestInputs(sc, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	roles := map[string]func(seed int64) *stream{
		"hot":           func(seed int64) *stream { st, _ := hotStream(in, sc, seed); return st },
		"cold":          func(seed int64) *stream { return coldStream(in, seed) },
		"ingest-reader": func(seed int64) *stream { return ingestReaderStream(ing, seed) },
	}
	for role, mk := range roles {
		a, b, other := firstURLs(mk(1), 500), firstURLs(mk(1), 500), firstURLs(mk(2), 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two streams at seed 1 differ", role)
		}
		if reflect.DeepEqual(a, other) {
			t.Errorf("%s: seeds 1 and 2 give the same stream", role)
		}
	}
	if reflect.DeepEqual(firstURLs(roles["hot"](1), 500), firstURLs(roles["cold"](1), 500)) {
		t.Error("hot and cold roles share one stream at the same seed")
	}
}

func TestDatasetFollowsSeed(t *testing.T) {
	text := func(seed int64) string {
		ds, held, err := dataset(3, 200, 50, seed)
		if err != nil {
			t.Fatal(err)
		}
		if ds.DB.Len() != 200 || len(held) != 50 {
			t.Fatalf("seed %d: %d base and %d held records, want 200 and 50", seed, ds.DB.Len(), len(held))
		}
		body, err := recordsText(ds.Schema, append(ds.DB.Records, held...))
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if text(1) != text(1) {
		t.Error("the same seed gave two different datasets")
	}
	if text(1) == text(2) {
		t.Error("seeds 1 and 2 gave the same dataset")
	}
}
