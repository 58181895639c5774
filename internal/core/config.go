package core

import (
	"errors"
	"fmt"
)

// Typed configuration errors: Build rejects an invalid Config with a
// *ConfigError naming the offending field, so callers can branch on the
// failure (errors.As) instead of string-matching ad-hoc messages.

// ConfigError reports one invalid Config field.
type ConfigError struct {
	// Field is the Config field name, e.g. "MinSupport".
	Field string
	// Reason describes the violated constraint.
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("core: invalid config: %s: %s", e.Field, e.Reason)
}

// Validate checks the configuration for structural validity: an iceberg
// threshold must be set (fractional MinSupport in (0,1] or an absolute
// MinCount ≥ 1), deviation and similarity thresholds must be non-negative,
// the plan must contain at least one path level, and worker counts cannot
// be negative. It returns the first violation as a *ConfigError; Build
// calls it before touching the database.
func (cfg Config) Validate() error {
	if cfg.MinCount < 0 {
		return &ConfigError{Field: "MinCount", Reason: fmt.Sprintf("must be non-negative, got %d", cfg.MinCount)}
	}
	if cfg.MinCount == 0 {
		if cfg.MinSupport <= 0 || cfg.MinSupport > 1 {
			return &ConfigError{Field: "MinSupport",
				Reason: fmt.Sprintf("must be in (0,1] when MinCount is unset, got %g", cfg.MinSupport)}
		}
	}
	if cfg.Epsilon < 0 {
		return &ConfigError{Field: "Epsilon", Reason: fmt.Sprintf("must be non-negative, got %g", cfg.Epsilon)}
	}
	if cfg.Tau < 0 || cfg.Tau > 1 {
		return &ConfigError{Field: "Tau", Reason: fmt.Sprintf("must be in [0,1], got %g", cfg.Tau)}
	}
	if len(cfg.Plan.PathLevels) == 0 {
		return &ConfigError{Field: "Plan", Reason: "must contain at least one path abstraction level"}
	}
	if cfg.Workers < 0 {
		return &ConfigError{Field: "Workers", Reason: fmt.Sprintf("must be non-negative, got %d", cfg.Workers)}
	}
	return nil
}

// ErrCellNotFound is the sentinel wrapped by Answer when no materialized or
// computable cell — not even an item-lattice ancestor — answers a query.
// Test with errors.Is.
var ErrCellNotFound = errors.New("core: cell not found")
