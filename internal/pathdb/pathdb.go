// Package pathdb implements the RFID path database of paper §2.
//
// A cleansed RFID stream reduces to one tuple per item:
//
//	⟨d1, ..., dm : (l1, t1)(l2, t2)...(lk, tk)⟩
//
// where d1..dm are path-independent dimensions describing the item (product,
// brand, ...) and each (li, ti) records that the item stayed at location li
// for ti time units. Locations and dimension values are concepts in their
// respective hierarchies; records store leaf-level concepts and all
// aggregation happens on demand.
package pathdb

import (
	"fmt"
	"strings"

	"flowcube/internal/hierarchy"
)

// Stage is one step of a path: a location concept and the number of time
// units the item remained there.
type Stage struct {
	Location hierarchy.NodeID
	Duration int64
}

// Path is the ordered sequence of stages an item traversed.
type Path []Stage

// Record is one path database tuple: leaf-level item dimension values plus
// the item's path.
type Record struct {
	Dims []hierarchy.NodeID
	Path Path
}

// Schema describes a path database: one hierarchy per path-independent
// dimension plus the location hierarchy. Durations are integer time units;
// their abstraction is captured by TimeLevel at aggregation time.
type Schema struct {
	Dims     []*hierarchy.Hierarchy
	Location *hierarchy.Hierarchy
}

// NewSchema builds a schema, validating that dimension names are unique.
func NewSchema(location *hierarchy.Hierarchy, dims ...*hierarchy.Hierarchy) (*Schema, error) {
	if location == nil {
		return nil, fmt.Errorf("pathdb: schema requires a location hierarchy")
	}
	seen := make(map[string]bool, len(dims))
	for _, d := range dims {
		if d == nil {
			return nil, fmt.Errorf("pathdb: nil dimension hierarchy")
		}
		if seen[d.Dimension()] {
			return nil, fmt.Errorf("pathdb: duplicate dimension %q", d.Dimension())
		}
		seen[d.Dimension()] = true
	}
	return &Schema{Dims: dims, Location: location}, nil
}

// MustNewSchema is NewSchema for static construction; it panics on error.
func MustNewSchema(location *hierarchy.Hierarchy, dims ...*hierarchy.Hierarchy) *Schema {
	s, err := NewSchema(location, dims...)
	if err != nil {
		panic(err)
	}
	return s
}

// DimIndex resolves a dimension name to its index, or -1.
func (s *Schema) DimIndex(name string) int {
	for i, d := range s.Dims {
		if d.Dimension() == name {
			return i
		}
	}
	return -1
}

// DB is an in-memory path database.
type DB struct {
	Schema  *Schema
	Records []Record
}

// New returns an empty database over the schema.
func New(schema *Schema) *DB {
	return &DB{Schema: schema}
}

// Append validates a record against the schema and adds it.
func (db *DB) Append(r Record) error {
	if err := db.Schema.ValidateRecord(r); err != nil {
		return err
	}
	db.Records = append(db.Records, r)
	return nil
}

// ValidateRecord checks a record against the schema without storing it:
// dimension value arity and ranges, every dimension value a leaf concept, a
// non-empty path, location ranges, and non-negative durations. Records carry
// leaves and cells roll them up (paper §1); a record naming an interior
// concept has no ancestor at the finer levels, and a cube that folded it in
// would hold a cell at the wrong level. Batch ingestion (core.ApplyDelta)
// validates whole batches up front with it so a bad record rejects the batch
// before any state changes.
func (s *Schema) ValidateRecord(r Record) error {
	if len(r.Dims) != len(s.Dims) {
		return fmt.Errorf("pathdb: record has %d dimension values, schema has %d",
			len(r.Dims), len(s.Dims))
	}
	for i, v := range r.Dims {
		if int(v) < 0 || int(v) >= s.Dims[i].Len() {
			return fmt.Errorf("pathdb: dimension %q value %d out of range",
				s.Dims[i].Dimension(), v)
		}
		if !s.Dims[i].IsLeaf(v) {
			return fmt.Errorf("pathdb: dimension %q value %q is an interior concept; records name leaves",
				s.Dims[i].Dimension(), s.Dims[i].Name(v))
		}
	}
	if len(r.Path) == 0 {
		return fmt.Errorf("pathdb: record has an empty path")
	}
	for _, st := range r.Path {
		if int(st.Location) < 0 || int(st.Location) >= s.Location.Len() {
			return fmt.Errorf("pathdb: location %d out of range", st.Location)
		}
		if st.Duration < 0 {
			return fmt.Errorf("pathdb: negative stage duration %d", st.Duration)
		}
	}
	return nil
}

// MustAppend is Append for static fixtures; it panics on error.
func (db *DB) MustAppend(r Record) {
	if err := db.Append(r); err != nil {
		panic(err)
	}
}

// Len reports the number of records.
func (db *DB) Len() int { return len(db.Records) }

// TimeLevel is the duration component of a path abstraction level. Grain
// discretizes durations into buckets of that many time units (Grain 1 keeps
// them as-is); Any aggregates durations to '*' so only the location sequence
// matters.
type TimeLevel struct {
	Grain int64
	Any   bool
}

// TimeBase is the identity time level (durations kept at source precision).
var TimeBase = TimeLevel{Grain: 1}

// TimeAny is the fully aggregated time level.
var TimeAny = TimeLevel{Any: true}

// Key returns a canonical identity string for the time level.
func (t TimeLevel) Key() string {
	if t.Any {
		return "t*"
	}
	return fmt.Sprintf("t%d", t.grain())
}

func (t TimeLevel) grain() int64 {
	if t.Grain <= 0 {
		return 1
	}
	return t.Grain
}

// Apply maps a raw duration to this time level. Under Any it returns 0 for
// every duration (the caller treats the value as '*').
func (t TimeLevel) Apply(d int64) int64 {
	if t.Any {
		return 0
	}
	return d / t.grain() * t.grain()
}

// PathLevel is a path abstraction level (⟨v1..vk⟩, tl) from §4.1: a cut
// through the location hierarchy plus a time level.
type PathLevel struct {
	Cut  *hierarchy.Cut
	Time TimeLevel
}

// Key returns a canonical identity string for the path level.
func (pl PathLevel) Key() string { return pl.Cut.Key() + "/" + pl.Time.Key() }

// DurationMerge combines the durations of consecutive stages that collapse
// to the same location concept during aggregation. The paper leaves the
// policy to the application; a nil merge, the default, adds the merged
// stages' durations — the paper's "as simple as just adding the individual
// durations".
type DurationMerge func(durations []int64) int64

// AggregatePath aggregates a path to a path abstraction level in the two
// steps of §4.1: (1) map each stage location through the cut and the
// duration through the time level; (2) merge runs of consecutive stages
// whose locations aggregated to the same concept, combining their raw
// durations with merge (then applying the time level to the merged value).
// A nil merge sums the durations.
func AggregatePath(p Path, level PathLevel, merge DurationMerge) Path {
	return AppendAggregated(make(Path, 0, len(p)), p, level, merge)
}

// AppendAggregated appends the stages of AggregatePath(p, level, merge) to
// dst and returns the extended slice, so a caller aggregating many paths
// can keep them in one arena. A nil merge sums the run in place, without
// collecting it first.
func AppendAggregated(dst, p Path, level PathLevel, merge DurationMerge) Path {
	for i := 0; i < len(p); {
		loc := level.Cut.Map(p[i].Location)
		j := i + 1
		for j < len(p) && level.Cut.Map(p[j].Location) == loc {
			j++
		}
		dur := p[i].Duration
		switch {
		case j == i+1:
		case merge == nil:
			for k := i + 1; k < j; k++ {
				dur += p[k].Duration
			}
		default:
			ds := make([]int64, 0, j-i)
			for k := i; k < j; k++ {
				ds = append(ds, p[k].Duration)
			}
			dur = merge(ds)
		}
		dst = append(dst, Stage{Location: loc, Duration: level.Time.Apply(dur)})
		i = j
	}
	return dst
}

// String renders a path as "(loc,dur)(loc,dur)..." using concept names,
// matching the paper's Table-1 notation.
func (p Path) String(loc *hierarchy.Hierarchy) string {
	var b strings.Builder
	for _, st := range p {
		fmt.Fprintf(&b, "(%s,%d)", loc.Name(st.Location), st.Duration)
	}
	return b.String()
}
