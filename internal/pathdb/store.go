package pathdb

// Store is a single-writer, copy-on-write record log: the committed prefix
// is immutable and shared by every snapshot that references it, so an
// append costs O(batch) — reserve capacity past the committed length, write
// the new records there, publish by advancing the length — instead of the
// O(cube) full-slice copy the serving layer used to pay per batch.
//
// Concurrency contract: exactly one goroutine (the commit loop) may call
// Reserve, Commit and Committed. The views Committed returns, once
// published to readers (the server's atomic snapshot pointer), are safe for
// concurrent readers even while the writer fills the reserved tail, because
// readers and writer touch disjoint index ranges of the backing array and
// the views are capacity-clamped (a reader appending to its view
// reallocates instead of clobbering the tail).
type Store struct {
	buf []Record
	n   int // committed length; buf[:n] is immutable
}

// NewStore adopts recs as the committed prefix. The caller hands over
// ownership: recs must not be mutated afterwards.
func NewStore(recs []Record) *Store {
	return &Store{buf: recs, n: len(recs)}
}

// Committed returns the committed records as a capacity-clamped view:
// len == cap == the committed count, so appending to the view cannot reach into the
// store's reserved tail. The view stays valid (and immutable) forever —
// growth reallocates rather than moving committed records.
func (s *Store) Committed() []Record {
	return s.buf[:s.n:s.n]
}

// Reserve returns a view of the committed records with capacity for k more:
// len == the committed count n, cap == n+k. Appending up to k records to the view
// writes them in place past the committed prefix without reallocating —
// the in-progress tail existing readers never see. Publish with Commit;
// abandoning the view (on error) leaves the store unchanged.
//
// Growth copies only the committed prefix and doubles capacity, so a
// sequence of appends costs amortized O(records appended), and views handed
// out earlier keep their own (old) backing array untouched.
func (s *Store) Reserve(k int) []Record {
	if k < 0 {
		k = 0
	}
	if s.n+k > cap(s.buf) {
		newCap := 2 * cap(s.buf)
		if newCap < s.n+k {
			newCap = s.n + k
		}
		grown := make([]Record, s.n, newCap)
		copy(grown, s.buf[:s.n])
		s.buf = grown
	}
	return s.buf[: s.n : s.n+k]
}

// Commit publishes view — a slice obtained from Reserve and extended with
// appended records — as the new committed state. When the appends stayed
// within the reservation the records are already in place and only the
// committed length advances; a view that outgrew its reservation (and
// therefore reallocated) is adopted wholesale, leaving prior Committed
// views on the old backing array.
func (s *Store) Commit(view []Record) {
	n := len(view)
	if n > 0 && n <= cap(s.buf) && &s.buf[:n][n-1] == &view[n-1] {
		// In place: the appends landed in the reserved tail of the store's
		// own array. Keep the full capacity for future reservations.
		s.n = n
		return
	}
	s.buf = view[:n:cap(view)]
	s.n = n
}
