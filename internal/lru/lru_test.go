package lru

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLRUEviction(t *testing.T) {
	c := New[string, string](2)
	calls := 0
	get := func(key string) {
		t.Helper()
		if _, _, err := c.Do(nil, key, func() (string, int64, error) {
			calls++
			return key, 1, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	get("a")
	get("b")
	get("a") // refresh a: b is now least recently used
	get("c") // evicts b
	if c.Stats().Entries != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.Stats().Entries)
	}
	if calls != 3 {
		t.Fatalf("computed %d times, want 3", calls)
	}
	get("b") // must recompute
	if calls != 4 {
		t.Fatalf("evicted key did not recompute: %d calls, want 4", calls)
	}
	get("a") // a must have been evicted by b's reinsert or still present; either way no error
}

// TestLRUCostBudget: eviction is by summed cost, the only resident entry
// stays however much it costs, a negative budget never evicts, and the
// counters tell hits from computations.
func TestLRUCostBudget(t *testing.T) {
	put := func(c *Cache[string, string], key string, cost int64) {
		t.Helper()
		if _, _, err := c.Do(nil, key, func() (string, int64, error) { return key, cost, nil }); err != nil {
			t.Fatal(err)
		}
	}
	c := New[string, string](10)
	put(c, "big", 25) // over the whole budget, but alone
	if st := c.Stats(); st.Entries != 1 || st.Cost != 25 || st.Evictions != 0 {
		t.Fatalf("sole oversized entry: %+v, want it resident", st)
	}
	put(c, "a", 4) // evicts big
	put(c, "b", 4)
	put(c, "a", 4) // hit
	put(c, "c", 4) // 12 > 10: evicts b, the coldest
	want := Stats{Entries: 2, Cost: 8, Hits: 1, Misses: 4, Evictions: 2}
	if st := c.Stats(); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}

	u := New[string, string](-1)
	for _, k := range []string{"a", "b", "c"} {
		put(u, k, 1<<40)
	}
	if st := u.Stats(); st.Entries != 3 || st.Evictions != 0 {
		t.Fatalf("unbounded cache evicted: %+v", st)
	}
}

func TestLRUHitReporting(t *testing.T) {
	c := New[string, string](4)
	_, hit, _ := c.Do(nil, "k", func() (string, int64, error) { return "", 1, nil })
	if hit {
		t.Error("first call reported a hit")
	}
	_, hit, _ = c.Do(nil, "k", func() (string, int64, error) {
		t.Fatal("cached key recomputed")
		return "", 0, nil
	})
	if !hit {
		t.Error("second call reported a miss")
	}
}

func TestLRUSingleFlight(t *testing.T) {
	c := New[string, string](4)
	var calls atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})

	var wg sync.WaitGroup
	hits := make([]bool, 8)
	// One leader computes; everyone else must share its flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Do(nil, "k", func() (string, int64, error) {
			calls.Add(1)
			close(started)
			<-release
			return "v", 1, nil
		})
	}()
	<-started
	for i := range hits {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, hit, err := c.Do(nil, "k", func() (string, int64, error) {
				calls.Add(1)
				return "v", 1, nil
			})
			if err != nil || v != "v" {
				t.Errorf("waiter got %v, %v", v, err)
			}
			hits[i] = hit
		}(i)
	}
	close(release)
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Errorf("fn ran %d times, want 1 (single flight)", n)
	}
	for i, h := range hits {
		if !h {
			t.Errorf("waiter %d reported a miss", i)
		}
	}
}

func TestLRUErrorsNotCached(t *testing.T) {
	c := New[string, string](4)
	calls := 0
	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		if _, _, err := c.Do(nil, "k", func() (string, int64, error) {
			calls++
			return "", 0, boom
		}); !errors.Is(err, boom) {
			t.Fatalf("call %d: err = %v, want boom", i, err)
		}
	}
	if calls != 2 {
		t.Errorf("error was cached: %d calls, want 2", calls)
	}
}

func TestLRUDisabledStillDeduplicates(t *testing.T) {
	c := New[string, string](0)
	calls := 0
	for i := 0; i < 3; i++ {
		c.Do(nil, "k", func() (string, int64, error) {
			calls++
			return "", 1, nil
		})
	}
	if calls != 3 {
		t.Errorf("disabled cache stored responses: %d calls, want 3", calls)
	}
	if c.Stats().Entries != 0 {
		t.Errorf("disabled cache holds %d entries", c.Stats().Entries)
	}
}

// TestLRUWaiterDeadline: a caller whose deadline passes while it waits on
// another's computation returns at once with the deadline's error, and the
// computation runs on, stores its value and serves the next caller.
func TestLRUWaiterDeadline(t *testing.T) {
	c := New[string, string](4)
	release, started, flown := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(flown)
		c.Do(nil, "k", func() (string, int64, error) {
			close(started)
			<-release
			return "v", 1, nil
		})
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	v, hit, err := c.Do(ctx, "k", func() (string, int64, error) {
		t.Error("a waiter computed although a flight was open")
		return "", 0, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) || hit || v != "" {
		t.Fatalf("expired waiter got (%q, %v, %v), want the deadline's error", v, hit, err)
	}

	close(release)
	<-flown
	v, hit, err = c.Do(nil, "k", func() (string, int64, error) {
		t.Error("the abandoned flight's value was not stored")
		return "", 0, nil
	})
	if err != nil || !hit || v != "v" {
		t.Errorf("after the flight: (%q, %v, %v), want the stored value", v, hit, err)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats %+v, want the flight's one miss and the last caller's hit", st)
	}
}
