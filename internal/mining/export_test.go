package mining

import "flowcube/internal/transact"

// SetMaxDensePairsForTest overrides the dense pair-matrix cap so tests can
// force the sparse fallback on small inputs. The returned func restores the
// production value.
func SetMaxDensePairsForTest(n int) (restore func()) {
	old := maxDensePairs
	maxDensePairs = n
	return func() { maxDensePairs = old }
}

// Counted is one frequent itemset with its support: the shape the tests walk
// a Result in.
type Counted struct {
	Set   []transact.Item
	Count int64
}

// All lists every frequent itemset across lengths, aliasing the levels.
func (r *Result) All() []Counted {
	var out []Counted
	for _, l := range r.ByLength {
		for i, n := range l.Counts {
			out = append(out, Counted{Set: l.Set(i), Count: n})
		}
	}
	return out
}
