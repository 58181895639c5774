package itemset

import (
	"sort"

	"flowcube/internal/transact"
)

// Level holds every itemset of one length — the frequent sets of one Apriori
// pass, or the candidates of the next — in one flat, pointer-free array: set
// i is Items[i*K:(i+1)*K]. The miners keep a level in lexicographic order,
// which is what the join, the trie layout and Support rely on; Counts runs
// parallel to the sets and is nil for candidates not yet counted.
type Level struct {
	K      int
	Items  []transact.Item
	Counts []int64
}

// Len reports the number of itemsets in the level.
func (l Level) Len() int {
	if l.K == 0 {
		return 0
	}
	return len(l.Items) / l.K
}

// Set returns the i-th itemset, aliasing the level's storage.
func (l Level) Set(i int) []transact.Item {
	return l.Items[i*l.K : (i+1)*l.K : (i+1)*l.K]
}

// Append adds a sorted itemset of length K with its support. Appending in
// lexicographic order keeps the level sorted.
func (l *Level) Append(set []transact.Item, count int64) {
	l.Items = append(l.Items, set...)
	l.Counts = append(l.Counts, count)
}

// Support binary-searches a sorted level for the sorted itemset; ok is false
// when it is absent (or of another length).
func (l Level) Support(set []transact.Item) (int64, bool) {
	if len(set) != l.K {
		return 0, false
	}
	n := l.Len()
	i := sort.Search(n, func(i int) bool { return !lexLess(l.Set(i), set) })
	if i == n || lexLess(set, l.Set(i)) {
		return 0, false
	}
	return l.Counts[i], true
}

// Sort puts the level's itemsets in lexicographic order, counts following —
// for a producer that does not discover them in that order.
func (l Level) Sort() {
	order := make([]int, l.Len())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return lexLess(l.Set(order[a]), l.Set(order[b])) })
	sorted := Level{K: l.K, Items: make([]transact.Item, 0, len(l.Items)), Counts: make([]int64, 0, len(l.Counts))}
	for _, i := range order {
		sorted.Append(l.Set(i), l.Counts[i])
	}
	copy(l.Items, sorted.Items)
	copy(l.Counts, sorted.Counts)
}

// lexLess orders two itemsets of equal length lexicographically.
func lexLess(a, b []transact.Item) bool {
	for k := range a {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return false
}
