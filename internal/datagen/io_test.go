package datagen_test

import (
	"slices"
	"strings"
	"testing"

	"flowcube/internal/datagen"
)

func TestDatasetIORoundTrip(t *testing.T) {
	cfg := datagen.Default()
	cfg.NumPaths = 250
	ds := datagen.MustGenerate(cfg)

	var sb strings.Builder
	if _, err := ds.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := datagen.Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.DB.Len() != ds.DB.Len() {
		t.Fatalf("round trip: %d records, want %d", back.DB.Len(), ds.DB.Len())
	}
	if back.Config != ds.Config {
		t.Errorf("config did not round trip: %+v vs %+v", back.Config, ds.Config)
	}
	for i := range ds.DB.Records {
		if !slices.Equal(back.DB.Records[i].Path, ds.DB.Records[i].Path) {
			t.Fatalf("record %d path mismatch", i)
		}
		for d := range ds.DB.Records[i].Dims {
			if back.DB.Records[i].Dims[d] != ds.DB.Records[i].Dims[d] {
				t.Fatalf("record %d dim %d mismatch", i, d)
			}
		}
	}
	// The rebuilt schema must agree on hierarchy shapes.
	for d, h := range ds.Schema.Dims {
		if back.Schema.Dims[d].Len() != h.Len() {
			t.Errorf("dimension %d hierarchy size mismatch", d)
		}
	}
}

func TestReadRejectsMissingHeader(t *testing.T) {
	if _, err := datagen.Read(strings.NewReader("a|f:1\n")); err == nil {
		t.Errorf("missing header accepted")
	}
	if _, err := datagen.Read(strings.NewReader("#flowcube-genconfig notjson\nrest\n")); err == nil {
		t.Errorf("malformed header accepted")
	}
}
