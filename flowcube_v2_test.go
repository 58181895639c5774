package flowcube_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"flowcube"
)

func table1Config(location *flowcube.Hierarchy, opts ...flowcube.Option) (flowcube.Config, error) {
	leaf := flowcube.LevelCut(location, location.Depth())
	plan := flowcube.Plan{PathLevels: []flowcube.PathLevel{{Cut: leaf, Time: flowcube.TimeBase}}}
	return flowcube.NewConfig(plan, opts...)
}

func TestNewConfigOptions(t *testing.T) {
	_, _, location, _ := table1()
	cfg, err := table1Config(location,
		flowcube.WithDelta(2),
		flowcube.WithEpsilon(0.1),
		flowcube.WithTau(0.5),
		flowcube.WithWorkers(2),
		flowcube.WithExceptions(),
		flowcube.WithDeltaLedger(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MinCount != 2 || cfg.Epsilon != 0.1 || cfg.Tau != 0.5 ||
		cfg.Workers != 2 || !cfg.MineExceptions || !cfg.DeltaLedger {
		t.Fatalf("options not applied: %+v", cfg)
	}

	if _, err := table1Config(location, flowcube.WithMinSupport(0.25)); err != nil {
		t.Fatalf("fractional threshold rejected: %v", err)
	}

	var ce *flowcube.ConfigError
	if _, err := table1Config(location); !errors.As(err, &ce) {
		t.Fatalf("missing threshold: got %v, want *ConfigError", err)
	} else if ce.Field != "MinSupport" {
		t.Errorf("ConfigError.Field = %q, want MinSupport", ce.Field)
	}
	if _, err := table1Config(location, flowcube.WithDelta(2), flowcube.WithTau(1.5)); !errors.As(err, &ce) {
		t.Fatalf("bad tau: got %v, want *ConfigError", err)
	}
	if _, err := flowcube.NewConfig(flowcube.Plan{}, flowcube.WithDelta(2)); !errors.As(err, &ce) {
		t.Fatalf("empty plan: got %v, want *ConfigError", err)
	} else if ce.Field != "Plan" {
		t.Errorf("ConfigError.Field = %q, want Plan", ce.Field)
	}
}

func TestBuildReturnsConfigError(t *testing.T) {
	_, _, _, db := table1()
	var ce *flowcube.ConfigError
	if _, err := flowcube.Build(db, flowcube.Config{MinCount: -1}); !errors.As(err, &ce) {
		t.Fatalf("Build with invalid config: got %v, want *ConfigError", err)
	}
}

func TestBuildContextCancellation(t *testing.T) {
	_, _, location, db := table1()
	cfg, err := table1Config(location, flowcube.WithDelta(2))
	if err != nil {
		t.Fatal(err)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := flowcube.BuildContext(cancelled, db, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build: got %v, want context.Canceled", err)
	}

	cube, err := flowcube.BuildContext(context.Background(), db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cube.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := flowcube.LoadCubeContext(cancelled, bytes.NewReader(buf.Bytes())); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled load: got %v, want context.Canceled", err)
	}
	if _, err := flowcube.LoadCubeContext(context.Background(), bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("uncancelled load: %v", err)
	}
}

func TestAnswerMissIsErrCellNotFound(t *testing.T) {
	product, brand, location, db := table1()
	cfg, err := table1Config(location, flowcube.WithDelta(2))
	if err != nil {
		t.Fatal(err)
	}
	// Only ⟨(2,2)⟩ is materialized.
	spec := flowcube.CuboidSpec{Item: flowcube.ItemLevel{2, 2}, PathLevel: 0}
	cfg.Cuboids = []flowcube.CuboidSpec{spec}
	cube, err := flowcube.Build(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cube.Answer(context.Background(), flowcube.Query{Spec: spec, Values: []flowcube.NodeID{
		product.MustLookup("shoes"), brand.MustLookup("nike"),
	}}); err != nil {
		t.Fatalf("materialized cell: %v", err)
	}
	// The apex has no cell, no census twin to certify a fold against, and
	// no ancestors for roll-up inference to reach — a genuine miss.
	_, err = cube.Answer(context.Background(), flowcube.Query{
		Spec:   flowcube.CuboidSpec{Item: flowcube.ItemLevel{0, 0}, PathLevel: 0},
		Values: []flowcube.NodeID{flowcube.RootConcept, flowcube.RootConcept},
	})
	if !errors.Is(err, flowcube.ErrCellNotFound) {
		t.Fatalf("missing cell: got %v, want ErrCellNotFound", err)
	}
}

func TestLoadCubeCorruptSnapshotError(t *testing.T) {
	_, _, location, db := table1()
	cfg, err := table1Config(location, flowcube.WithDelta(2))
	if err != nil {
		t.Fatal(err)
	}
	cube, err := flowcube.Build(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cube.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)/2] ^= 0xff
	var cse *flowcube.CorruptSnapshotError
	if _, err := flowcube.LoadCube(bytes.NewReader(raw)); err == nil {
		t.Skip("bit flip landed in a slack byte")
	} else if !errors.As(err, &cse) {
		t.Fatalf("corrupt snapshot: got %v, want *CorruptSnapshotError", err)
	}
}

// TestApplyDeltaRoot drives the streaming-append flow through the public
// API: build over a prefix, delta in the rest, compare against a full
// build.
func TestApplyDeltaRoot(t *testing.T) {
	_, _, location, db := table1()
	cfg, err := table1Config(location, flowcube.WithDelta(2), flowcube.WithDeltaLedger())
	if err != nil {
		t.Fatal(err)
	}
	full, err := flowcube.Build(db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := full.Save(&want); err != nil {
		t.Fatal(err)
	}

	const split = 5
	prefix := flowcube.NewDB(db.Schema)
	for _, r := range db.Records[:split] {
		prefix.MustAppend(r)
	}
	cube, err := flowcube.Build(prefix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := flowcube.ApplyDelta(cube, prefix, db.Records[split:])
	if err != nil {
		t.Fatal(err)
	}
	if stats.BatchRecords != db.Len()-split {
		t.Errorf("BatchRecords = %d, want %d", stats.BatchRecords, db.Len()-split)
	}
	var got bytes.Buffer
	if err := cube.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("delta-maintained cube differs from full build")
	}

	fractional, err := flowcube.Build(db, flowcube.Config{MinSupport: 0.25, Plan: cfg.Plan})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flowcube.ApplyDelta(fractional, db, nil); !errors.Is(err, flowcube.ErrAbsoluteMinCount) {
		t.Fatalf("fractional cube: got %v, want ErrAbsoluteMinCount", err)
	}
}
