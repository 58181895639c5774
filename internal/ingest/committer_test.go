package ingest

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"flowcube/internal/paperex"
	"flowcube/internal/pathdb"
)

func TestCommitterResolvesEveryRequest(t *testing.T) {
	ex := paperex.New()
	var applied atomic.Int64
	c := NewCommitter(Config{
		GroupLimit: 8,
		Apply: func(group []*Pending) {
			for _, p := range group {
				applied.Add(int64(len(p.Records)))
				p.Resolve(len(p.Records), nil)
			}
		},
	})
	defer c.Close()

	const workers = 32
	var wg sync.WaitGroup
	var total atomic.Int64
	for i := 0; i < workers; i++ {
		rec := ex.DB.Records[i%ex.DB.Len()]
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := c.Submit([]pathdb.Record{rec}, 1)
			if err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			resp, err := p.Wait()
			if err != nil {
				t.Errorf("Wait: %v", err)
				return
			}
			total.Add(int64(resp.(int)))
		}()
	}
	wg.Wait()
	if total.Load() != workers || applied.Load() != workers {
		t.Fatalf("resolved %d / applied %d records, want %d", total.Load(), applied.Load(), workers)
	}
	st := c.Stats()
	if st.Requests != workers {
		t.Fatalf("Stats.Requests = %d, want %d", st.Requests, workers)
	}
	if st.GroupMax > 8 {
		t.Fatalf("GroupMax = %d exceeds the limit 8", st.GroupMax)
	}
}

// TestCommitterMaxPendingNeverDropsAcked fills the queue to MaxPending
// behind a stalled commit, overflows it, and checks the two halves of the
// admission contract: overflow Submits fail with ErrQueueFull without being
// queued, and every Submit that returned a Pending (the ack) resolves with
// its batch applied once the stall clears — rejection can never reach back
// and drop an accepted batch.
func TestCommitterMaxPendingNeverDropsAcked(t *testing.T) {
	t.Run("explicit", func(t *testing.T) {
		testMaxPendingNeverDropsAcked(t, Config{GroupLimit: 1, MaxPending: 4}, 4)
	})
	// The zero value — what cmd/flowserve runs with — is bounded too.
	t.Run("default", func(t *testing.T) {
		testMaxPendingNeverDropsAcked(t, Config{}, DefaultMaxPending)
	})
}

func testMaxPendingNeverDropsAcked(t *testing.T, cfg Config, maxPending int) {
	ex := paperex.New()
	rec := ex.DB.Records[0]
	started := make(chan struct{})
	gate := make(chan struct{})
	var startedOnce sync.Once
	var applied atomic.Int64
	cfg.Apply = func(group []*Pending) {
		startedOnce.Do(func() { close(started) })
		<-gate
		for _, p := range group {
			applied.Add(1)
			p.Resolve(len(p.Records), nil)
		}
	}
	c := NewCommitter(cfg)
	defer c.Close()

	// First batch: dequeued by the loop, which then stalls in Apply.
	first, err := c.Submit([]pathdb.Record{rec}, 1)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	acked := []*Pending{first}
	for i := 0; i < maxPending; i++ {
		p, err := c.Submit([]pathdb.Record{rec}, 1)
		if err != nil {
			t.Fatalf("Submit %d within MaxPending: %v", i, err)
		}
		acked = append(acked, p)
	}
	const overflow = 3
	for i := 0; i < overflow; i++ {
		if _, err := c.Submit([]pathdb.Record{rec}, 1); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("Submit over MaxPending: err = %v, want ErrQueueFull", err)
		}
	}

	close(gate)
	for i, p := range acked {
		resp, err := p.Wait()
		if err != nil {
			t.Fatalf("acked batch %d failed: %v", i, err)
		}
		if resp.(int) != 1 {
			t.Fatalf("acked batch %d resolved %v, want 1", i, resp)
		}
	}
	if got := applied.Load(); got != int64(len(acked)) {
		t.Fatalf("applied %d batches, want %d", got, len(acked))
	}
	st := c.Stats()
	if st.Rejected != overflow {
		t.Fatalf("Stats.Rejected = %d, want %d", st.Rejected, overflow)
	}
	if st.Requests != uint64(len(acked)) {
		t.Fatalf("Stats.Requests = %d, want %d", st.Requests, len(acked))
	}
}

// TestCommitterGroupsUnderContention blocks the loop on a first commit so a
// backlog builds, then checks the backlog folds as groups, not singletons.
func TestCommitterGroupsUnderContention(t *testing.T) {
	ex := paperex.New()
	gate := make(chan struct{})
	first := true
	c := NewCommitter(Config{
		GroupLimit: 16,
		Apply: func(group []*Pending) {
			if first {
				first = false
				<-gate
			}
			for _, p := range group {
				p.Resolve(nil, nil)
			}
		},
	})
	defer c.Close()

	p0, err := c.Submit(ex.DB.Records[:1], 1)
	if err != nil {
		t.Fatal(err)
	}
	const backlog = 12
	pending := make([]*Pending, backlog)
	for i := range pending {
		if pending[i], err = c.Submit(ex.DB.Records[:1], 1); err != nil {
			t.Fatal(err)
		}
	}
	close(gate)
	p0.Wait()
	for _, p := range pending {
		p.Wait()
	}
	st := c.Stats()
	// The first group is the lone unblocked request; the backlog should
	// coalesce into far fewer groups than requests.
	if st.Groups >= 1+backlog {
		t.Fatalf("backlog of %d folded in %d groups — no coalescing", backlog, st.Groups-1)
	}
	if st.GroupMax < 2 {
		t.Fatalf("GroupMax = %d, want a real group", st.GroupMax)
	}
}

func TestCommitterGroupLimitOne(t *testing.T) {
	ex := paperex.New()
	c := NewCommitter(Config{
		GroupLimit: 1,
		Apply: func(group []*Pending) {
			if len(group) != 1 {
				t.Errorf("group of %d with GroupLimit 1", len(group))
			}
			for _, p := range group {
				p.Resolve(nil, nil)
			}
		},
	})
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := c.Submit(ex.DB.Records[:1], 1)
			if err != nil {
				t.Error(err)
				return
			}
			p.Wait()
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.GroupMax != 1 {
		t.Fatalf("GroupMax = %d, want 1", st.GroupMax)
	}
}

// TestCommitterExecBarrier checks Exec is serialized against commits and
// never joins a group: requests queued behind an Exec commit after it runs.
func TestCommitterExecBarrier(t *testing.T) {
	ex := paperex.New()
	gate := make(chan struct{})
	started := make(chan struct{})
	first := true
	var order []string
	var mu sync.Mutex
	c := NewCommitter(Config{
		GroupLimit: 16,
		Apply: func(group []*Pending) {
			if first {
				first = false
				close(started)
				<-gate
			}
			mu.Lock()
			order = append(order, "commit")
			mu.Unlock()
			for _, p := range group {
				p.Resolve(nil, nil)
			}
		},
	})
	defer c.Close()

	// Block the loop on the first commit, then queue: append, exec, append.
	p0, err := c.Submit(ex.DB.Records[:1], 1)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	p1, err := c.Submit(ex.DB.Records[:1], 1)
	if err != nil {
		t.Fatal(err)
	}
	execDone := make(chan struct{})
	go func() {
		defer close(execDone)
		c.Exec(func() {
			mu.Lock()
			order = append(order, "exec")
			mu.Unlock()
		})
	}()
	// The exec is queued asynchronously; give it a deterministic position
	// by waiting until the queue holds it before submitting the tail.
	for {
		c.mu.Lock()
		queued := false
		for _, it := range c.queue {
			if it.fn != nil {
				queued = true
			}
		}
		c.mu.Unlock()
		if queued {
			break
		}
	}
	p2, err := c.Submit(ex.DB.Records[:1], 1)
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	p0.Wait()
	p1.Wait()
	<-execDone
	p2.Wait()

	mu.Lock()
	defer mu.Unlock()
	// p0 commits alone (it was in flight); p1 must commit before the exec,
	// p2 after — three entries, exec strictly between the last two commits.
	want := []string{"commit", "commit", "exec", "commit"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCommitterCloseDrains(t *testing.T) {
	ex := paperex.New()
	gate := make(chan struct{})
	first := true
	var applied atomic.Int64
	c := NewCommitter(Config{
		Apply: func(group []*Pending) {
			if first {
				first = false
				<-gate
			}
			applied.Add(int64(len(group)))
			for _, p := range group {
				p.Resolve(nil, nil)
			}
		},
	})
	var pending []*Pending
	for i := 0; i < 8; i++ {
		p, err := c.Submit(ex.DB.Records[:1], 1)
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, p)
	}
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		c.Close()
	}()
	close(gate)
	<-closed
	for _, p := range pending {
		if _, err := p.Wait(); err != nil {
			t.Fatalf("queued request failed during drain: %v", err)
		}
	}
	if applied.Load() != 8 {
		t.Fatalf("drained %d requests, want 8", applied.Load())
	}
	if _, err := c.Submit(ex.DB.Records[:1], 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	if err := c.Exec(func() {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Exec after Close = %v, want ErrClosed", err)
	}
	// Idempotent.
	c.Close()
}

func TestCommitterAutoResolvesForgotten(t *testing.T) {
	ex := paperex.New()
	c := NewCommitter(Config{
		Apply: func(group []*Pending) {}, // forgets to resolve
	})
	defer c.Close()
	p, err := c.Submit(ex.DB.Records[:1], 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Wait(); err == nil {
		t.Fatal("forgotten request resolved without error")
	}
}
