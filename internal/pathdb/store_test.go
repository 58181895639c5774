package pathdb_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"flowcube/internal/paperex"
	"flowcube/internal/pathdb"
)

func storeRecords(t *testing.T, n int) []pathdb.Record {
	t.Helper()
	ex := paperex.New()
	out := make([]pathdb.Record, 0, n)
	for len(out) < n {
		out = append(out, ex.DB.Records[len(out)%ex.DB.Len()])
	}
	return out
}

func TestStoreReserveCommit(t *testing.T) {
	recs := storeRecords(t, 10)
	s := pathdb.NewStore(append([]pathdb.Record(nil), recs[:4]...))
	if n := len(s.Committed()); n != 4 {
		t.Fatalf("committed = %d, want 4", n)
	}

	before := s.Committed()
	view := s.Reserve(3)
	if len(view) != 4 || cap(view) != 7 {
		t.Fatalf("Reserve view len=%d cap=%d, want 4/7", len(view), cap(view))
	}
	view = append(view, recs[4], recs[5], recs[6])
	// Not yet committed: readers still see 4 records.
	if n := len(s.Committed()); n != 4 {
		t.Fatalf("pre-commit committed = %d, want 4", n)
	}
	s.Commit(view)
	if n := len(s.Committed()); n != 7 {
		t.Fatalf("post-commit committed = %d, want 7", n)
	}
	// The pre-append view is capacity-clamped and still valid.
	if len(before) != 4 || cap(before) != 4 {
		t.Fatalf("old view len=%d cap=%d, want 4/4", len(before), cap(before))
	}
	for i := range before {
		if !sameRecord(before[i], recs[i]) {
			t.Fatalf("old view record %d changed", i)
		}
	}
	got := s.Committed()
	for i := range got {
		if !sameRecord(got[i], recs[i]) {
			t.Fatalf("committed record %d mismatch", i)
		}
	}
}

// TestStoreAbandonedReservation verifies an error path: reserving and
// writing but never committing leaves the store unchanged, and the next
// reservation reuses the tail.
func TestStoreAbandonedReservation(t *testing.T) {
	recs := storeRecords(t, 6)
	s := pathdb.NewStore(append([]pathdb.Record(nil), recs[:2]...))
	view := s.Reserve(2)
	_ = append(view, recs[2], recs[3])
	if len(s.Committed()) != 2 {
		t.Fatalf("abandoned reservation changed Len to %d", len(s.Committed()))
	}
	view = s.Reserve(2)
	view = append(view, recs[4], recs[5])
	s.Commit(view)
	got := s.Committed()
	if len(got) != 4 {
		t.Fatalf("Len = %d, want 4", len(got))
	}
	want := []pathdb.Record{recs[0], recs[1], recs[4], recs[5]}
	for i := range got {
		if !sameRecord(got[i], want[i]) {
			t.Fatalf("record %d mismatch after abandoned reservation", i)
		}
	}
}

// TestStoreInPlaceCommitKeepsCapacity checks the amortized-growth contract:
// committing an in-place append must not shrink the store's capacity to the
// reservation bound, or every subsequent reserve would reallocate.
func TestStoreInPlaceCommitKeepsCapacity(t *testing.T) {
	recs := storeRecords(t, 64)
	s := pathdb.NewStore(nil)
	allocs := 0
	var lastFirst *pathdb.Record
	for i := 0; i < 64; i++ {
		view := s.Reserve(1)
		view = append(view, recs[i])
		s.Commit(view)
		if first := &s.Committed()[0]; first != lastFirst {
			allocs++
			lastFirst = first
		}
	}
	// Doubling growth from 0: well under one reallocation per append.
	if allocs > 10 {
		t.Fatalf("64 single-record commits caused %d reallocations, want amortized growth", allocs)
	}
	if len(s.Committed()) != 64 {
		t.Fatalf("Len = %d, want 64", len(s.Committed()))
	}
}

// TestStoreConcurrentReaders hammers Committed views from readers while the
// single writer reserves, fills and commits — the exact access pattern the
// serving layer's MVCC snapshots rely on: the writer takes each view and
// publishes it through an atomic pointer, as the server's snapshot holder
// does. Run under -race.
func TestStoreConcurrentReaders(t *testing.T) {
	recs := storeRecords(t, 512)
	s := pathdb.NewStore(append([]pathdb.Record(nil), recs[:8]...))
	var published atomic.Pointer[[]pathdb.Record]
	publish := func() {
		view := s.Committed()
		published.Store(&view)
	}
	publish()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				view := *published.Load()
				for i := range view {
					if len(view[i].Dims) == 0 {
						t.Error("reader observed a partially written record")
						return
					}
				}
			}
		}()
	}
	for i := 8; i < len(recs); i += 4 {
		hi := i + 4
		if hi > len(recs) {
			hi = len(recs)
		}
		view := s.Reserve(hi - i)
		view = append(view, recs[i:hi]...)
		s.Commit(view)
		publish()
	}
	close(stop)
	wg.Wait()
	if len(s.Committed()) != len(recs) {
		t.Fatalf("Len = %d, want %d", len(s.Committed()), len(recs))
	}
}

func sameRecord(a, b pathdb.Record) bool {
	if len(a.Dims) != len(b.Dims) || len(a.Path) != len(b.Path) {
		return false
	}
	for i := range a.Dims {
		if a.Dims[i] != b.Dims[i] {
			return false
		}
	}
	for i := range a.Path {
		if a.Path[i] != b.Path[i] {
			return false
		}
	}
	return true
}
