// Package transact implements the paper's §5 transformation of a path
// database into a transaction database (Table 3), together with the interned
// symbol table the mining algorithms run over.
//
// Every value in the path database becomes an *item* that encodes its
// concept-hierarchy position:
//
//   - a path-independent dimension value contributes one item per
//     materialized abstraction level of its dimension (the paper's "121",
//     "12*", ... encoding), and
//   - a path stage contributes, for every configured path abstraction level,
//     one item recording the aggregated location prefix leading to the stage
//     plus the stage's duration at that level (the paper's "(fdt,1)",
//     "(fdt,*)", "(fTs,10)" encoding).
//
// The symbol table additionally records, per item, the metadata the Shared
// algorithm prunes with: ancestor links along the item and path lattices,
// stage linkability (two stages whose location prefixes conflict can never
// co-occur in one path), and each item's high-abstraction-level image used
// for pre-counting.
package transact

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"flowcube/internal/hierarchy"
	"flowcube/internal/pathdb"
)

// Item is an interned symbol identifier. Items are dense, starting at 0.
type Item int32

// Kind distinguishes the two item families.
type Kind uint8

const (
	// KindDimValue is a path-independent dimension value at some level.
	KindDimValue Kind = iota
	// KindStage is an encoded path stage at some path abstraction level.
	KindStage
)

// Transaction is one encoded path-database record: the sorted set of items
// it supports.
type Transaction []Item

// Plan configures the encoding: which abstraction levels are materialized.
// This is the paper's cube materialization plan restricted to what mining
// needs (§5 "the concrete cuboids ... determined based on the cube
// materialization plan").
type Plan struct {
	// DimLevels lists, per dimension, the hierarchy levels to materialize
	// (1 = most general non-'*' level). A nil entry means every level
	// 1..depth of that dimension.
	DimLevels [][]int
	// PathLevels lists the path abstraction levels to materialize.
	PathLevels []pathdb.PathLevel
	// IncludeTop, when set, also materializes the root-'*' item of every
	// dimension. The paper's optimization 3 removes these from the
	// transaction database; the Basic baseline keeps them.
	IncludeTop bool
}

// NormalizedDimLevels returns the per-dimension level lists with nil entries
// expanded to 1..depth.
func (p Plan) NormalizedDimLevels(schema *pathdb.Schema) [][]int {
	out := make([][]int, len(schema.Dims))
	for i, h := range schema.Dims {
		if i < len(p.DimLevels) && p.DimLevels[i] != nil {
			out[i] = append([]int(nil), p.DimLevels[i]...)
			sort.Ints(out[i])
			continue
		}
		for l := 1; l <= h.Depth(); l++ {
			out[i] = append(out[i], l)
		}
	}
	return out
}

type itemInfo struct {
	kind Kind

	// KindDimValue fields.
	dim   int
	node  hierarchy.NodeID
	level int

	// KindStage fields.
	pathLevel int                // index into Symbols.pathLevels
	seq       []hierarchy.NodeID // aggregated location prefix; last = stage location
	dur       int64              // duration at the stage; ignored when durAny
	durAny    bool

	ancestors []Item // strict generalizations guaranteed present alongside this item
	topImage  Item   // high-abstraction-level image for pre-counting; -1 if none
}

// Symbols interns items for one schema+plan and answers the structural
// queries mining needs. It is not safe for concurrent mutation; encode the
// whole database first, after which all read methods are safe concurrently.
type Symbols struct {
	schema     *pathdb.Schema
	plan       Plan
	dimLevels  [][]int
	pathLevels []pathdb.PathLevel

	items    []itemInfo
	byDimVal map[int64]Item
	byStage  map[string]Item

	// precountLevel is the index of the coarsest path level (used as the
	// stage pre-counting target), or -1 when there is a single level.
	precountLevel int

	// cutRel[a][b] relates the location cuts of path levels a and b. It is a
	// property of the plan, computed once: Linkable asks it per candidate
	// pair, and Cut.Refines is a nested loop over both cuts.
	cutRel [][]cutRelation
}

// cutRelation is how one path level's location cut stands to another's.
type cutRelation uint8

const (
	_ cutRelation = iota // neither cut refines the other
	cutsSame
	cutRefines   // the first cut is strictly finer
	cutRefinedBy // the second cut is strictly finer
)

// cutRelations tabulates cutRelation for every pair of path levels.
func cutRelations(levels []pathdb.PathLevel) [][]cutRelation {
	rel := make([][]cutRelation, len(levels))
	for a, la := range levels {
		rel[a] = make([]cutRelation, len(levels))
		for b, lb := range levels {
			switch {
			case la.Cut.Key() == lb.Cut.Key():
				rel[a][b] = cutsSame
			case la.Cut.Refines(lb.Cut):
				rel[a][b] = cutRefines
			case lb.Cut.Refines(la.Cut):
				rel[a][b] = cutRefinedBy
			}
		}
	}
	return rel
}

// NewSymbols builds an empty symbol table for the schema and plan. The plan
// must contain at least one path level.
func NewSymbols(schema *pathdb.Schema, plan Plan) (*Symbols, error) {
	if len(plan.PathLevels) == 0 {
		return nil, fmt.Errorf("transact: plan has no path abstraction levels")
	}
	if len(plan.DimLevels) > len(schema.Dims) {
		return nil, fmt.Errorf("transact: plan has %d dimension level lists, schema has %d dimensions",
			len(plan.DimLevels), len(schema.Dims))
	}
	s := &Symbols{
		schema:     schema,
		plan:       plan,
		dimLevels:  plan.NormalizedDimLevels(schema),
		pathLevels: plan.PathLevels,
		byDimVal:   make(map[int64]Item),
		byStage:    make(map[string]Item),
	}
	s.precountLevel = s.coarsestPathLevel()
	s.cutRel = cutRelations(s.pathLevels)
	return s, nil
}

// MustNewSymbols is NewSymbols for static construction; it panics on error.
func MustNewSymbols(schema *pathdb.Schema, plan Plan) *Symbols {
	s, err := NewSymbols(schema, plan)
	if err != nil {
		panic(err)
	}
	return s
}

// coarsestPathLevel picks the level every other level refines, preferring
// TimeAny; -1 if none strictly coarser than all others exists.
func (s *Symbols) coarsestPathLevel() int {
	best := -1
	for i, cand := range s.pathLevels {
		ok := true
		for j, other := range s.pathLevels {
			if i == j {
				continue
			}
			if !other.Cut.Refines(cand.Cut) {
				ok = false
				break
			}
			if cand.Time.Any || other.Time.Any == cand.Time.Any {
				continue
			}
			ok = false
			break
		}
		if !ok {
			continue
		}
		if best == -1 || (cand.Time.Any && !s.pathLevels[best].Time.Any) {
			best = i
		}
	}
	if best >= 0 && len(s.pathLevels) > 1 {
		return best
	}
	return -1
}

// DimLevels returns the materialized levels per dimension.
func (s *Symbols) DimLevels() [][]int { return s.dimLevels }

// Len reports the number of interned items.
func (s *Symbols) Len() int { return len(s.items) }

// IsStage reports whether the item encodes a path stage.
func (s *Symbols) IsStage(it Item) bool { return s.items[it].kind == KindStage }

// Dim reports the dimension index of a KindDimValue item.
func (s *Symbols) Dim(it Item) int { return s.items[it].dim }

// Node reports the concept of a KindDimValue item.
func (s *Symbols) Node(it Item) hierarchy.NodeID { return s.items[it].node }

// Level reports the hierarchy level of a KindDimValue item.
func (s *Symbols) Level(it Item) int { return s.items[it].level }

// StageLevel reports the path-level index of a KindStage item.
func (s *Symbols) StageLevel(it Item) int { return s.items[it].pathLevel }

// StageSeq reports the aggregated location prefix of a KindStage item. The
// returned slice is owned by the table and must not be modified.
func (s *Symbols) StageSeq(it Item) []hierarchy.NodeID { return s.items[it].seq }

// StageDuration reports the stage duration; ok is false when the duration
// is aggregated to '*'.
func (s *Symbols) StageDuration(it Item) (d int64, ok bool) {
	inf := &s.items[it]
	return inf.dur, !inf.durAny
}

// Ancestors returns the interned strict generalizations of an item that are
// guaranteed to co-occur with it in every transaction. The slice is owned
// by the table.
func (s *Symbols) Ancestors(it Item) []Item { return s.items[it].ancestors }

// IsTopLevel reports whether the item lives at the highest materialized
// abstraction of its family: a dimension value at its dimension's most
// general materialized level (excluding '*'), or a stage at the coarsest
// path level. Pre-counting during the first scan pairs exactly these items.
func (s *Symbols) IsTopLevel(it Item) bool {
	inf := &s.items[it]
	if inf.kind == KindDimValue {
		levels := s.dimLevels[inf.dim]
		return len(levels) > 0 && inf.level == levels[0]
	}
	return s.precountLevel >= 0 && inf.pathLevel == s.precountLevel
}

// PrecountImage returns the item whose pre-counted support bounds this
// item's support: the item itself when it is top-level, its image at the
// top level when one is derivable, and -1 otherwise (no coarsest path level
// exists).
func (s *Symbols) PrecountImage(it Item) Item {
	if s.IsTopLevel(it) {
		return it
	}
	return s.items[it].topImage
}

// LookupDimValue resolves the item for a dimension value without interning
// new symbols; ok is false when the value never occurred at that level.
func (s *Symbols) LookupDimValue(dim int, node hierarchy.NodeID) (Item, bool) {
	it, ok := s.byDimVal[dimValKey(dim, node)]
	return it, ok
}

// LookupStage resolves a stage item without interning; ok is false when the
// encoded database contains no such stage.
func (s *Symbols) LookupStage(level int, seq []hierarchy.NodeID, dur int64, durAny bool) (Item, bool) {
	var buf [stageKeyBuf]byte
	it, ok := s.byStage[string(appendStageKey(buf[:0], level, seq, dur, durAny))]
	return it, ok
}

func dimValKey(dim int, node hierarchy.NodeID) int64 {
	return int64(dim)<<32 | int64(uint32(node))
}

// stageKeyBuf is the stack buffer a stage key is built in: room for a
// prefix of 28 locations before append moves it to the heap.
const stageKeyBuf = 128

// appendStageKey appends a stage item's identity to b: one byte saying
// whether the duration is '*', the path level and every location of the
// prefix as 4 bytes each, then the duration's 8 bytes unless it is '*'.
// Every field has a fixed width and the first byte fixes whether the
// duration is there, so the length tells how many locations there are and
// two stages share a key only when they are the same stage. A lookup of
// string(key) in a map does not allocate.
func appendStageKey(b []byte, level int, seq []hierarchy.NodeID, dur int64, durAny bool) []byte {
	if durAny {
		b = append(b, '*')
	} else {
		b = append(b, 'd')
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(level))
	for _, n := range seq {
		b = binary.LittleEndian.AppendUint32(b, uint32(n))
	}
	if !durAny {
		b = binary.LittleEndian.AppendUint64(b, uint64(dur))
	}
	return b
}

// internDimValue interns the item for concept node of dimension dim,
// resolving its ancestors at the materialized higher levels.
func (s *Symbols) internDimValue(dim int, node hierarchy.NodeID) Item {
	key := dimValKey(dim, node)
	if it, ok := s.byDimVal[key]; ok {
		return it
	}
	h := s.schema.Dims[dim]
	level := h.Level(node)
	it := Item(len(s.items))
	s.items = append(s.items, itemInfo{
		kind: KindDimValue, dim: dim, node: node, level: level, topImage: -1,
	})
	s.byDimVal[key] = it

	// Ancestors: the same dimension's concepts at every materialized level
	// above this one (plus '*' when the plan includes top items).
	var anc []Item
	for _, l := range s.dimLevels[dim] {
		if l >= level {
			break
		}
		anc = append(anc, s.internDimValue(dim, h.AncestorAt(node, l)))
	}
	if s.plan.IncludeTop && level > 0 {
		anc = append(anc, s.internDimValue(dim, hierarchy.Root))
	}
	top := Item(-1)
	if len(s.dimLevels[dim]) > 0 {
		if minLevel := s.dimLevels[dim][0]; minLevel < level {
			top = s.internDimValue(dim, h.AncestorAt(node, minLevel))
		}
	}
	s.items[it].ancestors = anc
	s.items[it].topImage = top
	return it
}

// internStage interns the stage item for the given path level, aggregated
// prefix and duration, wiring ancestor and pre-count metadata.
func (s *Symbols) internStage(level int, seq []hierarchy.NodeID, dur int64, durAny bool) Item {
	var buf [stageKeyBuf]byte
	key := appendStageKey(buf[:0], level, seq, dur, durAny)
	if it, ok := s.byStage[string(key)]; ok {
		return it
	}
	it := Item(len(s.items))
	seqCopy := append([]hierarchy.NodeID(nil), seq...)
	s.items = append(s.items, itemInfo{
		kind: KindStage, pathLevel: level, seq: seqCopy, dur: dur, durAny: durAny,
		topImage: -1,
	})
	s.byStage[string(key)] = it

	var anc []Item
	// Time-axis generalization within the same cut: always sound.
	if !durAny {
		if any := s.sameCutAnyLevel(level); any >= 0 {
			anc = append(anc, s.internStage(any, seqCopy, 0, true))
		}
	}
	// Cut-axis generalization: sound only when aggregating the prefix under
	// the coarser cut produces no merges and the image of the final
	// location covers a single leaf (see stageAncestorAt).
	for target := range s.pathLevels {
		if target == level {
			continue
		}
		if a, ok := s.stageAncestorAt(level, seqCopy, dur, durAny, target); ok {
			anc = append(anc, a)
		}
	}
	s.items[it].ancestors = dedupItems(anc)

	if s.precountLevel >= 0 && level != s.precountLevel {
		if img, ok := s.stageAncestorAt(level, seqCopy, dur, durAny, s.precountLevel); ok {
			s.items[it].topImage = img
		}
	}
	return it
}

// sameCutAnyLevel finds a materialized path level with the same cut and
// TimeAny, or -1.
func (s *Symbols) sameCutAnyLevel(level int) int {
	cut := s.pathLevels[level].Cut
	for i, pl := range s.pathLevels {
		if i != level && pl.Time.Any && pl.Cut.Key() == cut.Key() {
			return i
		}
	}
	return -1
}

// stageAncestorAt computes, if soundly derivable, the generalization of a
// stage item at the target path level. The generalization is sound — i.e.
// guaranteed to appear in every transaction containing the original stage —
// only when:
//
//  1. the target cut is refined by the source cut and the target time level
//     is at least as coarse;
//  2. mapping the prefix under the target cut merges no consecutive stages
//     (a merge would fold durations of neighbours into the item, which the
//     source item does not carry); and
//  3. either the target time is '*', or the image of the final location
//     covers exactly one leaf, so no later stage of the path can merge into
//     it and change its duration.
func (s *Symbols) stageAncestorAt(level int, seq []hierarchy.NodeID, dur int64, durAny bool, target int) (Item, bool) {
	src, dst := s.pathLevels[level], s.pathLevels[target]
	if !src.Cut.Refines(dst.Cut) || src.Cut.Key() == dst.Cut.Key() {
		return -1, false
	}
	if durAny && !dst.Time.Any {
		return -1, false
	}
	mapped := make([]hierarchy.NodeID, len(seq))
	for i, n := range seq {
		mapped[i] = dst.Cut.Map(n)
		if i > 0 && mapped[i] == mapped[i-1] {
			return -1, false // a merge occurred; duration not derivable
		}
	}
	if dst.Time.Any {
		return s.internStage(target, mapped, 0, true), true
	}
	last := mapped[len(mapped)-1]
	if s.leafCover(dst.Cut, last) != 1 {
		return -1, false // a successor stage could merge into the image
	}
	return s.internStage(target, mapped, dst.Time.Apply(dur), false), true
}

// leafCover counts leaves of the location hierarchy mapping to node under
// the cut.
func (s *Symbols) leafCover(cut *hierarchy.Cut, node hierarchy.NodeID) int {
	n := 0
	for _, leaf := range s.schema.Location.Leaves() {
		if cut.Map(leaf) == node {
			n++
		}
	}
	return n
}

func dedupItems(in []Item) []Item {
	if len(in) < 2 {
		return in
	}
	sort.Slice(in, func(i, j int) bool { return in[i] < in[j] })
	out := in[:1]
	for _, it := range in[1:] {
		if it != out[len(out)-1] {
			out = append(out, it)
		}
	}
	return out
}

// EncodeRecord encodes one record into a sorted transaction containing its
// dimension-value items at every materialized level and its stage items at
// every materialized path level.
func (s *Symbols) EncodeRecord(r pathdb.Record) Transaction {
	var t Transaction
	for dim, v := range r.Dims {
		h := s.schema.Dims[dim]
		for _, l := range s.dimLevels[dim] {
			t = append(t, s.internDimValue(dim, h.AncestorAt(v, l)))
		}
		if s.plan.IncludeTop {
			t = append(t, s.internDimValue(dim, hierarchy.Root))
		}
	}
	t = s.appendStages(t, r.Path)
	slices.Sort(t)
	return dedupTransaction(t)
}

// EncodeStages encodes only the path portion of a record: its stage items
// at every materialized path level. This is what the Cubing competitor
// mines per cell (Algorithm 2 step 2).
func (s *Symbols) EncodeStages(p pathdb.Path) Transaction {
	t := s.appendStages(nil, p)
	slices.Sort(t)
	return dedupTransaction(t)
}

// appendStages appends the path's stage items at every path level to t.
// One aggregation buffer and one prefix buffer serve every level:
// internStage copies what it keeps.
func (s *Symbols) appendStages(t Transaction, p pathdb.Path) Transaction {
	agg := make(pathdb.Path, 0, len(p))
	seq := make([]hierarchy.NodeID, 0, len(p))
	for li, pl := range s.pathLevels {
		agg, seq = pathdb.AppendAggregated(agg[:0], p, pl, nil), seq[:0]
		for _, st := range agg {
			seq = append(seq, st.Location)
			t = append(t, s.internStage(li, seq, st.Duration, pl.Time.Any))
		}
	}
	return t
}

func dedupTransaction(t Transaction) Transaction {
	if len(t) < 2 {
		return t
	}
	out := t[:1]
	for _, it := range t[1:] {
		if it != out[len(out)-1] {
			out = append(out, it)
		}
	}
	return out
}

// Encode encodes the whole database. The i-th transaction corresponds to
// the i-th record.
func (s *Symbols) Encode(db *pathdb.DB) []Transaction {
	out := make([]Transaction, len(db.Records))
	for i, r := range db.Records {
		out[i] = s.EncodeRecord(r)
	}
	return out
}

// Linkable reports whether two items can co-occur in some path. Dimension
// values are always linkable with anything (different dimensions vary
// freely; the same dimension's same-level distinct values cannot co-occur,
// which we also detect). For stages, two encoded prefixes conflict when
// their location sequences disagree — the paper's "(fd,2) and (fts,5) can
// never appear in the same path".
func (s *Symbols) Linkable(a, b Item) bool {
	ia, ib := &s.items[a], &s.items[b]
	if ia.kind == KindDimValue && ib.kind == KindDimValue {
		if ia.dim != ib.dim {
			return true
		}
		// Same dimension: compatible only along one hierarchy branch.
		h := s.schema.Dims[ia.dim]
		return h.IsAncestorOrSelf(ia.node, ib.node) || h.IsAncestorOrSelf(ib.node, ia.node)
	}
	if ia.kind != ib.kind {
		return true
	}
	return s.stagesLinkable(ia, ib)
}

func (s *Symbols) stagesLinkable(ia, ib *itemInfo) bool {
	if ia.pathLevel == ib.pathLevel {
		return s.seqsCompatible(ia, ib, true)
	}
	switch s.cutRel[ia.pathLevel][ib.pathLevel] {
	case cutsSame:
		// Same cut, different time level: sequences share a domain but
		// durations are not comparable across levels.
		return s.seqsCompatible(ia, ib, false)
	case cutRefines:
		return s.crossCutCompatible(ia, ib, s.pathLevels[ib.pathLevel].Cut)
	case cutRefinedBy:
		return s.crossCutCompatible(ib, ia, s.pathLevels[ia.pathLevel].Cut)
	default:
		return true // incomparable cuts: assume linkable
	}
}

// seqsCompatible checks prefix compatibility of two stages over the same
// cut. When durations are comparable and the sequences are identical, the
// stages denote the same path position and must agree on duration.
func (s *Symbols) seqsCompatible(ia, ib *itemInfo, compareDur bool) bool {
	short, long := ia, ib
	if len(short.seq) > len(long.seq) {
		short, long = long, short
	}
	for i, n := range short.seq {
		if long.seq[i] != n {
			return false
		}
	}
	if compareDur && len(ia.seq) == len(ib.seq) && !ia.durAny && !ib.durAny && ia.dur != ib.dur {
		return false
	}
	return true
}

// crossCutCompatible checks a fine-cut stage against a coarse-cut stage:
// the coarse image of the fine prefix — its locations mapped under the
// coarse cut, runs of one concept collapsed — must agree with the coarse
// stage's sequence for as long as both last. The last image element may
// extend by absorbing later path stages, so it is pinned in location but
// not in position-end, and nothing beyond the shorter of the two is pinned
// at all. The image is compared as it is produced, never built.
func (s *Symbols) crossCutCompatible(fine, coarse *itemInfo, coarseCut *hierarchy.Cut) bool {
	k := 0 // image elements compared so far
	var last hierarchy.NodeID
	for _, n := range fine.seq {
		m := coarseCut.Map(n)
		if k > 0 && m == last {
			continue
		}
		if k == len(coarse.seq) {
			return true
		}
		if coarse.seq[k] != m {
			return false
		}
		last = m
		k++
	}
	return true
}

// HasAncestorPair reports whether the itemset contains some item together
// with one of its ancestors — such candidates are redundant (Srikant &
// Agrawal): the ancestor's presence is implied, so the count equals the
// subset without it.
func (s *Symbols) HasAncestorPair(set []Item) bool {
	if len(set) < 2 {
		return false
	}
	present := make(map[Item]bool, len(set))
	for _, it := range set {
		present[it] = true
	}
	for _, it := range set {
		for _, a := range s.items[it].ancestors {
			if present[a] {
				return true
			}
		}
	}
	return false
}

// AllLinkable reports whether every pair in the itemset is linkable.
func (s *Symbols) AllLinkable(set []Item) bool {
	for i := 0; i < len(set); i++ {
		for j := i + 1; j < len(set); j++ {
			if !s.Linkable(set[i], set[j]) {
				return false
			}
		}
	}
	return true
}

// ItemString renders an item in the paper's notation, e.g. "product=shoes"
// or "(f.d.t,1)@L0", for diagnostics and tests.
func (s *Symbols) ItemString(it Item) string {
	inf := &s.items[it]
	if inf.kind == KindDimValue {
		return fmt.Sprintf("%s=%s", s.schema.Dims[inf.dim].Dimension(), s.schema.Dims[inf.dim].Name(inf.node))
	}
	var b strings.Builder
	b.WriteByte('(')
	for i, n := range inf.seq {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(s.schema.Location.Name(n))
	}
	b.WriteByte(',')
	if inf.durAny {
		b.WriteByte('*')
	} else {
		fmt.Fprintf(&b, "%d", inf.dur)
	}
	fmt.Fprintf(&b, ")@L%d", inf.pathLevel)
	return b.String()
}

// SetString renders an itemset for diagnostics.
func (s *Symbols) SetString(set []Item) string {
	parts := make([]string, len(set))
	for i, it := range set {
		parts[i] = s.ItemString(it)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
