package itemset

import (
	"sync"
	"sync/atomic"

	"flowcube/internal/transact"
)

// joinParallelMin is the level size below which Join stays on one
// goroutine: sharding a few thousand parents costs more than joining them.
// A variable so tests can shard small levels.
var joinParallelMin = 4096

// Join generates the candidates of length k+1 from the frequent itemsets of
// length k by the classic Apriori join (merge two sets sharing their first
// k-1 items) followed by the subset test: every k-subset of a candidate
// must itself be frequent. prev must be sorted; so is the result, which
// carries no counts.
//
// The sorted order does all the work. Sets sharing a (k-1)-prefix are one
// contiguous group, so the join pairs each set (the first parent) with the
// later members of its group. The two subsets that drop a joined tail are
// the parents; a subset that drops prefix position d keeps both tails, so
// its own (k-1)-prefix — the parent without position d — is the same for
// every candidate of that first parent. That prefix names one group of prev,
// found by one binary search (it sorts after the parent's group, and later
// parents of a group search from where the previous one landed), and the
// candidates surviving position d are the linear merge of the sibling tails
// with that group's tails. No key is encoded and nothing is hashed.
//
// Parents are independent, and candidates of a lower parent sort first:
// large levels are cut into parent ranges handed to the given number of
// workers and concatenated in range order, so the result does not depend on
// the worker count.
func Join(prev Level, workers int) Level {
	n, k := prev.Len(), prev.K
	out := Level{K: k + 1}
	if n < 2 {
		return out
	}
	// opens[i]: set i starts a new (k-1)-prefix group.
	opens := make([]bool, n)
	opens[0] = true
	for i := 1; i < n; i++ {
		opens[i] = !samePrefix(prev.Set(i-1), prev.Set(i), k-1)
	}
	if workers <= 1 || n < joinParallelMin {
		out.Items = joinRange(prev, opens, 0, n)
		return out
	}
	// More ranges than workers: a parent's work depends on its group, and
	// the first level's single group is triangular in the parent index.
	ranges := 8 * workers
	parts := make([][]transact.Item, ranges)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				r := int(next.Add(1)) - 1
				if r >= ranges {
					return
				}
				parts[r] = joinRange(prev, opens, r*n/ranges, (r+1)*n/ranges)
			}
		}()
	}
	wg.Wait()
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out.Items = make([]transact.Item, 0, total)
	for _, p := range parts {
		out.Items = append(out.Items, p...)
	}
	return out
}

// joinRange returns the candidates whose first parent lies in prev[lo:hi],
// in lexicographic order.
func joinRange(prev Level, opens []bool, lo, hi int) (out []transact.Item) {
	k, items, n := prev.K, prev.Items, prev.Len()
	groupEnd := func(i int) int {
		for i++; i < n && !opens[i]; i++ {
		}
		return i
	}
	sub := make([]transact.Item, k-1)
	var tails []transact.Item
	// from[d] is where the search for the position-d subset prefix starts:
	// within one group those prefixes ascend with the parent.
	from := make([]int, k-1)
	end := lo
	for i := lo; i < hi; i++ {
		if i == end {
			end = groupEnd(i)
			for d := range from {
				from[d] = end
			}
		}
		if i+1 == end {
			continue // no later sibling to join with
		}
		parent := items[i*k : (i+1)*k]
		tails = tails[:0]
		for j := i + 1; j < end; j++ {
			tails = append(tails, items[j*k+k-1])
		}
		for d := 0; d < k-1 && len(tails) > 0; d++ {
			copy(sub, parent[:d])
			copy(sub[d:], parent[d+1:])
			g := lowerBound(items, k, from[d], n, sub)
			from[d] = g
			if g == n || !samePrefix(items[g*k:], sub, k-1) {
				tails = tails[:0]
				break
			}
			gEnd := groupEnd(g)
			kept := 0
			for _, b := range tails {
				for g < gEnd && items[g*k+k-1] < b {
					g++
				}
				if g == gEnd {
					break
				}
				if items[g*k+k-1] == b {
					tails[kept] = b
					kept++
				}
			}
			tails = tails[:kept]
		}
		for _, b := range tails {
			out = append(out, parent...)
			out = append(out, b)
		}
	}
	return out
}

// lowerBound returns the first index in [lo, hi) of the k-wide sorted array
// whose leading len(prefix) items are not below prefix, or hi. It gallops
// out from lo before bisecting: the join's searches resume where the
// previous parent's landed, and usually land a few groups further on.
func lowerBound(items []transact.Item, k, lo, hi int, prefix []transact.Item) int {
	below := func(i int) bool { return lexLess(items[i*k:i*k+len(prefix)], prefix) }
	for step, probe := 1, lo; probe < hi; step <<= 1 {
		if !below(probe) {
			hi = probe
			break
		}
		lo = probe + 1
		probe += step
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if below(mid) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func samePrefix(a, b []transact.Item, n int) bool {
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
