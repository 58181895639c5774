package datagen_test

import (
	"slices"
	"testing"

	"flowcube/internal/datagen"
	"flowcube/internal/hierarchy"
)

func TestGenerateShape(t *testing.T) {
	cfg := datagen.Default()
	cfg.NumPaths = 1000
	ds, err := datagen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.DB.Len() != 1000 {
		t.Fatalf("generated %d paths, want 1000", ds.DB.Len())
	}
	if len(ds.Schema.Dims) != cfg.NumDims {
		t.Fatalf("schema has %d dims, want %d", len(ds.Schema.Dims), cfg.NumDims)
	}
	for _, h := range ds.Schema.Dims {
		if h.Depth() != 3 {
			t.Errorf("dimension %q depth = %d, want 3", h.Dimension(), h.Depth())
		}
		want := cfg.DimFanouts[0] * cfg.DimFanouts[1] * cfg.DimFanouts[2]
		if got := len(h.Leaves()); got != want {
			t.Errorf("dimension %q has %d leaves, want %d", h.Dimension(), got, want)
		}
	}
	if ds.Schema.Location.Depth() != 2 {
		t.Errorf("location depth = %d, want 2", ds.Schema.Location.Depth())
	}
	if len(ds.Sequences) != cfg.NumSequences {
		t.Errorf("sequence pool = %d, want %d", len(ds.Sequences), cfg.NumSequences)
	}
	for i, r := range ds.DB.Records {
		if len(r.Path) < cfg.SeqLenMin || len(r.Path) > cfg.SeqLenMax {
			t.Fatalf("record %d path length %d outside [%d,%d]", i, len(r.Path), cfg.SeqLenMin, cfg.SeqLenMax)
		}
		for j, st := range r.Path {
			if st.Duration < 1 || st.Duration > int64(cfg.DurationDomain) {
				t.Fatalf("record %d stage %d duration %d outside [1,%d]", i, j, st.Duration, cfg.DurationDomain)
			}
			if j > 0 && r.Path[j-1].Location == st.Location {
				t.Fatalf("record %d has consecutive repeated location", i)
			}
			if !ds.Schema.Location.IsLeaf(st.Location) {
				t.Fatalf("record %d stage %d location not a leaf", i, j)
			}
		}
		for d, v := range r.Dims {
			if ds.Schema.Dims[d].Level(v) != 3 {
				t.Fatalf("record %d dim %d value not at leaf level", i, d)
			}
		}
	}
}

func TestDeterministicBySeed(t *testing.T) {
	cfg := datagen.Default()
	cfg.NumPaths = 200
	a := datagen.MustGenerate(cfg)
	b := datagen.MustGenerate(cfg)
	for i := range a.DB.Records {
		if !slices.Equal(a.DB.Records[i].Path, b.DB.Records[i].Path) {
			t.Fatalf("same seed produced different path at record %d", i)
		}
		for d := range a.DB.Records[i].Dims {
			if a.DB.Records[i].Dims[d] != b.DB.Records[i].Dims[d] {
				t.Fatalf("same seed produced different dims at record %d", i)
			}
		}
	}
	cfg.Seed = 2
	c := datagen.MustGenerate(cfg)
	same := true
	for i := range a.DB.Records {
		if !slices.Equal(a.DB.Records[i].Path, c.DB.Records[i].Path) {
			same = false
			break
		}
	}
	if same {
		t.Errorf("different seeds produced identical databases")
	}
}

func TestSkewEffect(t *testing.T) {
	// Higher sequence skew concentrates mass on fewer distinct paths.
	base := datagen.Default()
	base.NumPaths = 3000
	base.SeqSkew = 0.0
	flat := datagen.MustGenerate(base)
	base.SeqSkew = 2.0
	skewed := datagen.MustGenerate(base)

	distinct := func(ds *datagen.Dataset) int {
		seen := map[string]bool{}
		for _, r := range ds.DB.Records {
			key := ""
			for _, st := range r.Path {
				key += string(rune(st.Location)) + "|"
			}
			seen[key] = true
		}
		return len(seen)
	}
	if distinct(skewed) >= distinct(flat) {
		t.Errorf("skewed data has %d distinct location sequences, flat has %d; skew should concentrate",
			distinct(skewed), distinct(flat))
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*datagen.Config){
		func(c *datagen.Config) { c.NumPaths = 0 },
		func(c *datagen.Config) { c.NumDims = 0 },
		func(c *datagen.Config) { c.DimFanouts = [3]int{0, 1, 1} },
		func(c *datagen.Config) { c.LocFanouts = [2]int{0, 2} },
		func(c *datagen.Config) { c.NumSequences = 0 },
		func(c *datagen.Config) { c.SeqLenMin, c.SeqLenMax = 5, 3 },
		func(c *datagen.Config) { c.SeqLenMin = 0 },
		func(c *datagen.Config) { c.DurationDomain = 0 },
	}
	for i, mut := range bad {
		cfg := datagen.Default()
		mut(&cfg)
		if _, err := datagen.Generate(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestDefaultPlan(t *testing.T) {
	cfg := datagen.Default()
	cfg.NumPaths = 10
	ds := datagen.MustGenerate(cfg)
	plan := ds.DefaultPlan()
	if len(plan.PathLevels) != 4 {
		t.Fatalf("default plan has %d path levels, want 4", len(plan.PathLevels))
	}
	anyCount := 0
	for _, pl := range plan.PathLevels {
		if pl.Time.Any {
			anyCount++
		}
	}
	if anyCount != 2 {
		t.Errorf("default plan has %d '*'-time levels, want 2", anyCount)
	}
	// The leaf cut must refine the one-up cut.
	if !plan.PathLevels[0].Cut.Refines(plan.PathLevels[2].Cut) {
		t.Errorf("leaf cut does not refine the aggregated cut")
	}
	_ = hierarchy.Root
}
