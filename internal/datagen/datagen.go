// Package datagen re-implements the paper's §6.1 synthetic path generator,
// which simulates the movement of items through a retail operation.
//
// The generator first builds the set of valid location sequences an item
// can take through the system, over a location hierarchy with two levels of
// abstraction. Each record is then produced in two steps: values for the
// path-independent dimensions are drawn level by level down their 3-level
// concept hierarchies, and a valid location sequence is selected and
// annotated with random durations. Every choice — dimension values per
// level, sequence selection, and durations — is drawn from a Zipf
// distribution with configurable α to simulate varying data skew.
package datagen

import (
	"fmt"
	"math/rand"

	"flowcube/internal/hierarchy"
	"flowcube/internal/pathdb"
	"flowcube/internal/transact"
)

// Config parameterizes the generator. The zero value is not usable; start
// from Default and adjust.
type Config struct {
	Seed     int64
	NumPaths int
	// NumDims is the number of path-independent dimensions (paper: d).
	NumDims int
	// DimFanouts gives the distinct values per level of every dimension's
	// 3-level concept hierarchy — the paper's item-density knob
	// (Fig. 9: a=(2,2,5), b=(4,4,6), c=(5,5,10)).
	DimFanouts [3]int
	// DimSkew is the Zipf α used when drawing a child at each level.
	DimSkew float64
	// LocFanouts gives the location hierarchy shape: top-level concepts
	// and children per concept (2 abstraction levels, §6.1).
	LocFanouts [2]int
	// NumSequences is the number of distinct valid location sequences —
	// the paper's path-density knob (Fig. 10; fewer sequences = denser).
	NumSequences int
	// SeqSkew is the Zipf α over sequence selection.
	SeqSkew float64
	// SeqLenMin and SeqLenMax bound the length of valid sequences.
	SeqLenMin, SeqLenMax int
	// DurationDomain is the number of distinct stage durations (1..D).
	DurationDomain int
	// DurationSkew is the Zipf α over durations.
	DurationSkew float64
}

// Default returns the baseline configuration used across the experiments:
// 5 dimensions at the paper's dataset-b density, 20 leaf locations, 50
// valid sequences of length 4..8, 10 distinct durations, moderate skew.
func Default() Config {
	return Config{
		Seed:           1,
		NumPaths:       10000,
		NumDims:        5,
		DimFanouts:     [3]int{4, 4, 6},
		DimSkew:        0.8,
		LocFanouts:     [2]int{5, 4},
		NumSequences:   50,
		SeqSkew:        0.8,
		SeqLenMin:      4,
		SeqLenMax:      8,
		DurationDomain: 10,
		DurationSkew:   1.0,
	}
}

// Dataset is a generated path database plus the sequence pool it was drawn
// from.
type Dataset struct {
	Config    Config
	Schema    *pathdb.Schema
	DB        *pathdb.DB
	Sequences [][]hierarchy.NodeID
}

// Generate builds a dataset. It returns an error for nonsensical
// configurations (no paths, no dimensions, an empty sequence pool, ...).
func Generate(cfg Config) (*Dataset, error) {
	if cfg.NumPaths <= 0 {
		return nil, fmt.Errorf("datagen: NumPaths must be positive, got %d", cfg.NumPaths)
	}
	if cfg.NumDims <= 0 {
		return nil, fmt.Errorf("datagen: NumDims must be positive, got %d", cfg.NumDims)
	}
	for _, f := range cfg.DimFanouts {
		if f <= 0 {
			return nil, fmt.Errorf("datagen: dimension fanouts must be positive, got %v", cfg.DimFanouts)
		}
	}
	if cfg.LocFanouts[0] <= 0 || cfg.LocFanouts[1] <= 0 {
		return nil, fmt.Errorf("datagen: location fanouts must be positive, got %v", cfg.LocFanouts)
	}
	if cfg.NumSequences <= 0 {
		return nil, fmt.Errorf("datagen: NumSequences must be positive, got %d", cfg.NumSequences)
	}
	if cfg.SeqLenMin < 1 || cfg.SeqLenMax < cfg.SeqLenMin {
		return nil, fmt.Errorf("datagen: bad sequence length bounds [%d,%d]", cfg.SeqLenMin, cfg.SeqLenMax)
	}
	if cfg.DurationDomain <= 0 {
		return nil, fmt.Errorf("datagen: DurationDomain must be positive, got %d", cfg.DurationDomain)
	}

	rng := rand.New(rand.NewSource(cfg.Seed))

	location := hierarchy.Generate("loc", cfg.LocFanouts[0], cfg.LocFanouts[1])
	dims := make([]*hierarchy.Hierarchy, cfg.NumDims)
	for i := range dims {
		dims[i] = hierarchy.Generate(fmt.Sprintf("d%d", i),
			cfg.DimFanouts[0], cfg.DimFanouts[1], cfg.DimFanouts[2])
	}
	schema, err := pathdb.NewSchema(location, dims...)
	if err != nil {
		return nil, err
	}

	leaves := location.Leaves()
	sequences := generateSequences(rng, leaves, cfg)

	// Per-level child pickers. Every node at one level has the same fanout,
	// so one sampler per level suffices.
	dimPick := [3]*zipf{}
	for l := 0; l < 3; l++ {
		dimPick[l] = newZipf(rng, cfg.DimFanouts[l], cfg.DimSkew)
	}
	seqPick := newZipf(rng, len(sequences), cfg.SeqSkew)
	durPick := newZipf(rng, cfg.DurationDomain, cfg.DurationSkew)

	db := pathdb.New(schema)
	for i := 0; i < cfg.NumPaths; i++ {
		rec := pathdb.Record{Dims: make([]hierarchy.NodeID, cfg.NumDims)}
		for d, h := range dims {
			node := hierarchy.Root
			for l := 0; l < 3; l++ {
				children := h.Children(node)
				node = children[dimPick[l].next()]
			}
			rec.Dims[d] = node
		}
		seq := sequences[seqPick.next()]
		rec.Path = make(pathdb.Path, len(seq))
		for j, loc := range seq {
			rec.Path[j] = pathdb.Stage{Location: loc, Duration: int64(durPick.next() + 1)}
		}
		db.MustAppend(rec)
	}
	return &Dataset{Config: cfg, Schema: schema, DB: db, Sequences: sequences}, nil
}

// MustGenerate is Generate for tests and benchmarks; it panics on error.
func MustGenerate(cfg Config) *Dataset {
	ds, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return ds
}

// generateSequences builds the pool of valid location sequences: random
// leaf walks without immediate repeats. Duplicate sequences are allowed to
// keep generation O(n); with realistic domains collisions are rare and
// harmless (they only skew density slightly, which the SeqSkew knob does
// anyway).
func generateSequences(rng *rand.Rand, leaves []hierarchy.NodeID, cfg Config) [][]hierarchy.NodeID {
	out := make([][]hierarchy.NodeID, cfg.NumSequences)
	for i := range out {
		n := cfg.SeqLenMin
		if cfg.SeqLenMax > cfg.SeqLenMin {
			n += rng.Intn(cfg.SeqLenMax - cfg.SeqLenMin + 1)
		}
		seq := make([]hierarchy.NodeID, n)
		for j := range seq {
			for {
				l := leaves[rng.Intn(len(leaves))]
				if j > 0 && seq[j-1] == l {
					continue
				}
				seq[j] = l
				break
			}
		}
		out[i] = seq
	}
	return out
}

// DefaultPlan returns the encoding plan the experiments use (§6.1): every
// level of every item dimension, and four path abstraction levels —
// locations at the level present in the database and one level higher,
// crossed with durations at the present level and at '*'.
func (ds *Dataset) DefaultPlan() transact.Plan {
	loc := ds.Schema.Location
	leaf := hierarchy.LevelCut(loc, loc.Depth())
	up := hierarchy.LevelCut(loc, loc.Depth()-1)
	return transact.Plan{
		PathLevels: []pathdb.PathLevel{
			{Cut: leaf, Time: pathdb.TimeBase},
			{Cut: leaf, Time: pathdb.TimeAny},
			{Cut: up, Time: pathdb.TimeBase},
			{Cut: up, Time: pathdb.TimeAny},
		},
	}
}
