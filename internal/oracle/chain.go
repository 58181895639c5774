package oracle

import (
	"fmt"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/hierarchy"
	"flowcube/internal/pathdb"
)

// Chain is one row of the step table: a run of moves over one source
// database and config, checked against the reference where its steps say.
type Chain struct {
	// Name is the subtest the chain runs as.
	Name string
	// DB holds the source records, which the chain never writes.
	DB  *pathdb.DB
	Cfg core.Config
	// Steps run in order.
	Steps []Step
	// Stats, when set, sees every append's statistics once the chain ends.
	Stats func(t *testing.T, stats []*core.DeltaStats)
}

// Step is one move of a chain.
type Step func(s *state)

// state is a chain in progress: the candidate cube, the records it has
// absorbed, and every cube a later step derived from, with the bytes it
// saved then.
type state struct {
	t      *testing.T
	src    *pathdb.DB
	cfg    core.Config
	cube   *core.Cube
	db     *pathdb.DB
	at     string
	frozen []frozen
	stats  *[]*core.DeltaStats
}

type frozen struct {
	cube *core.Cube
	snap []byte
	at   string
}

// Run runs each chain as a parallel subtest. When a chain ends, every cube
// a fork, a branch or an abandoned fold was taken from must still save what
// it saved then.
func Run(t *testing.T, chains ...Chain) {
	for _, c := range chains {
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			var stats []*core.DeltaStats
			s := &state{t: t, src: c.DB, cfg: c.Cfg, stats: &stats}
			s.run(c.Steps)
			for _, f := range s.frozen {
				if d := Diff(f.snap, Save(t, f.cube)); d != "" {
					t.Errorf("the cube forked %s changed under what was derived from it: %s", f.at, d)
				}
			}
			if c.Stats != nil {
				c.Stats(t, stats)
			}
		})
	}
}

func (s *state) run(steps []Step) {
	for _, step := range steps {
		step(s)
		s.checkLedger()
	}
}

// ledgerDiffer is what internal/core's export_test.go adds to *core.Cube,
// so only core's own tests see it: the first difference between the sub-δ
// ledger the cube maintains and one derived afresh from db over the same
// cells, empty when they agree or the cube has not derived one yet.
type ledgerDiffer interface {
	LedgerDiff(db *pathdb.DB) string
}

// checkLedger holds the ledger contract after every step of a chain run by
// core's tests: what ApplyDelta keeps is what a fresh derivation over the
// records the candidate has absorbed would give.
func (s *state) checkLedger() {
	c, ok := any(s.cube).(ledgerDiffer)
	if !ok || s.db == nil {
		return
	}
	if d := c.LedgerDiff(s.db); d != "" {
		s.t.Errorf("%s: the maintained sub-δ ledger departs from a fresh derivation: %s", s.at, d)
	}
}

// freeze records what the current cube saves before something derives from
// it.
func (s *state) freeze() {
	if s.cube != nil {
		s.frozen = append(s.frozen, frozen{s.cube, Save(s.t, s.cube), s.at})
	}
}

// BuildAt builds the candidate over the source's first n records.
func BuildAt(n int) Step {
	return func(s *state) {
		s.at = fmt.Sprintf("after a build at %d", n)
		s.db = Prefix(s.src, n)
		s.cube = Build(s.t, s.db, s.cfg)
	}
}

// Reload saves the candidate and continues from the snapshot opened again,
// lazily when lazy is set.
func Reload(lazy bool) Step {
	return func(s *state) {
		s.at += fmt.Sprintf(", reopened (lazy %t)", lazy)
		s.cube = Reopen(s.t, s.cube, lazy)
	}
}

// Fork continues from the candidate's next generation.
func Fork() Step {
	return func(s *state) {
		s.freeze()
		s.at += ", forked"
		s.cube = s.cube.Fork()
	}
}

// AppendTo folds the source records from the first the candidate has not
// absorbed up to the n-th into it.
func AppendTo(n int) Step {
	return func(s *state) {
		from := s.db.Len()
		stats, err := core.ApplyDelta(s.cube, s.db, s.src.Records[from:n])
		if err != nil {
			s.t.Fatalf("%s: append [%d, %d): %v", s.at, from, n, err)
		}
		if s.db.Len() != n {
			s.t.Fatalf("%s: the append left %d records, want %d", s.at, s.db.Len(), n)
		}
		s.at += fmt.Sprintf(", appended to %d", n)
		*s.stats = append(*s.stats, stats)
	}
}

// Abandon folds the next n source records into a fork of the candidate over
// the database's current length, as a server's dropped commit does, and
// drops the fork: neither the candidate nor its database may see them.
func Abandon(n int) Step {
	return func(s *state) {
		before, have := Save(s.t, s.cube), s.db.Len()
		scratch := &pathdb.DB{Schema: s.db.Schema, Records: s.db.Records[:have:have]}
		if _, err := core.ApplyDelta(s.cube.Fork(), scratch, s.src.Records[have:have+n]); err != nil {
			s.t.Fatalf("%s: abandoned fold: %v", s.at, err)
		}
		if d := Diff(before, Save(s.t, s.cube)); d != "" || s.db.Len() != have {
			s.t.Fatalf("%s: an abandoned fold reached its parent (%d records, want %d): %s", s.at, s.db.Len(), have, d)
		}
	}
}

// DropConds drops the candidate's condition cache, so the next append
// re-mines every cell it touches in full.
func DropConds() Step {
	return func(s *state) {
		s.at += ", condition cache dropped"
		s.cube.DropCondCache()
	}
}

// Split filters c into k disjoint parts by a hash of each cell's values:
// the shape a cluster split has.
func Split(c *core.Cube, k int) []*core.Cube {
	parts := make([]*core.Cube, k)
	for i := range parts {
		parts[i] = c.FilterCells(func(values []hierarchy.NodeID) bool {
			sum := 0
			for _, v := range values {
				sum += int(v)
			}
			return sum%k == i
		})
	}
	return parts
}

// SplitMerge continues from the merge of Split(candidate, k).
func SplitMerge(k int) Step {
	return func(s *state) {
		merged, err := core.Merge(Split(s.cube, k))
		if err != nil {
			s.t.Fatalf("%s: merge of %d parts: %v", s.at, k, err)
		}
		s.at += fmt.Sprintf(", split %d ways and merged", k)
		s.cube = merged
	}
}

// Expect checks that the candidate saves what a full build over the records
// it has absorbed saves, and is structurally valid.
func Expect() Step {
	return func(s *state) {
		Check(s.t, s.at, s.cube, s.db, s.cfg)
		if err := s.cube.Validate(); err != nil {
			s.t.Errorf("%s: %v", s.at, err)
		}
	}
}

// Branch runs each branch from the current state in turn, each over its own
// copy of the database. A branch must leave the cube it starts from as it
// was: begin it with a fork, a reopen or a build.
func Branch(branches ...[]Step) Step {
	return func(s *state) {
		s.freeze()
		for _, b := range branches {
			sub := *s
			if s.db != nil {
				sub.db = Prefix(s.db, s.db.Len())
			}
			sub.run(b)
			s.frozen = sub.frozen
		}
	}
}
