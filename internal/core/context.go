package core

import (
	"context"

	"flowcube/internal/pathdb"
)

// BuildContext is Build with cancellation: the configuration is validated
// up front (returning *ConfigError), and ctx is checked between the
// pipeline phases — encode+mine, populate, exception mining, redundancy marking — so a cancelled build returns
// promptly without leaving goroutines behind (each phase joins its own
// workers). A build cancelled mid-phase finishes that phase first; phases
// are the paper's natural barriers and the granularity the snapshot codec
// shares.
func BuildContext(ctx context.Context, db *pathdb.DB, cfg Config) (*Cube, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cube, conds, err := prepare(db, cfg)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// One scan of the path database assigns records to the cells of every
	// materialized item level, and folds the paths into the flowgraphs.
	cube.populate(db)

	if cfg.MineExceptions {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cube.mineExceptions(db, conds)
	}
	if cfg.Tau > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cube.MarkRedundancy(cfg.Tau)
	}
	return cube, nil
}
