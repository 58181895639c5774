package ingest

import (
	"errors"
	"sort"
	"sync"

	"flowcube/internal/pathdb"
)

// ErrClosed is returned by Submit and Exec after Close.
var ErrClosed = errors.New("ingest: committer closed")

// ErrQueueFull is returned by Submit when Config.MaxPending appends are
// already waiting: the batch was NOT accepted and the caller should shed
// load (the HTTP layer maps it to 503 + Retry-After). A batch accepted
// before the queue filled is unaffected — admission is checked before
// enqueueing, never after, so overflow can only reject, not drop.
var ErrQueueFull = errors.New("ingest: committer queue full")

// Pending is one append request waiting for (or resolved by) a group
// commit. The handler goroutine blocks in Wait; the commit loop resolves it
// from the apply callback.
type Pending struct {
	// Records is the parsed batch to fold.
	Records []pathdb.Record
	// Tag is an opaque admission check: the snapshot schema generation the
	// batch was parsed against. The apply callback rejects stale tags.
	Tag uint64

	resp any
	err  error
	done chan struct{}
}

// NewPending builds an unqueued Pending with the same shape Submit
// produces. Apply harnesses and tests use it to invoke an apply callback
// directly and Wait on the outcome.
func NewPending(records []pathdb.Record, tag uint64) *Pending {
	return &Pending{Records: records, Tag: tag, done: make(chan struct{})}
}

// Resolve delivers the commit outcome to the waiting handler. Exactly one
// Resolve per Pending; the committer resolves stragglers itself if the
// apply callback forgets one.
func (p *Pending) Resolve(resp any, err error) {
	p.resp = resp
	p.err = err
	close(p.done)
}

func (p *Pending) resolved() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// Wait blocks until the group containing this request commits (or fails)
// and returns the outcome set by Resolve.
func (p *Pending) Wait() (any, error) {
	<-p.done
	return p.resp, p.err
}

// Config parameterizes a Committer.
type Config struct {
	// GroupLimit caps how many pending appends fold in one commit group.
	// 0 or negative means the default (64). 1 disables group commit:
	// every batch folds alone.
	GroupLimit int
	// MaxPending bounds the number of append requests waiting in the
	// queue: Submit returns ErrQueueFull instead of enqueueing the
	// (MaxPending+1)th — under a sustained overload the queue (and the
	// handler goroutines parked in Wait) would otherwise grow without
	// limit. 0 means DefaultMaxPending; negative means unbounded (tests).
	MaxPending int
	// Apply folds one commit group. It must Resolve every Pending it is
	// given (unresolved ones are failed by the committer afterwards).
	// Called from the commit loop, so invocations are serialized.
	Apply func(group []*Pending)
}

const defaultGroupLimit = 64

// DefaultMaxPending is the queue bound when Config.MaxPending is zero:
// sixteen full commit groups.
const DefaultMaxPending = 16 * defaultGroupLimit

// Committer is the single-writer commit loop behind /admin/append: handlers
// Submit parsed batches and block; the loop drains the queue into groups of
// up to GroupLimit and hands each group to Apply, which journals the
// batches in the WAL, folds them in one ApplyDelta, and swaps the snapshot.
// Coalescing means N concurrent small appends pay one clone+fold+fsync
// instead of N, while readers stay on the previous snapshot (MVCC via the
// holder pointer swap) and are never blocked by a commit.
//
// Exec runs an arbitrary function on the same loop, serialized against
// commits; the server uses it for reloads so snapshot swaps have a single
// writer. An Exec never joins a commit group: groups stop at the first
// queued Exec so queue order is preserved.
type Committer struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []item
	closed bool
	loopWG sync.WaitGroup

	cfg Config

	// pending is the number of append requests in the queue, guarded by
	// mu; Submit rejects when it reaches cfg.MaxPending.
	pending int

	// stats, guarded by mu
	groups     uint64
	requests   uint64
	execs      uint64
	rejected   uint64
	maxGroup   int
	groupSizes []int // capped histogram sample for p50
}

type item struct {
	p  *Pending
	fn func()
}

// NewCommitter starts the commit loop.
func NewCommitter(cfg Config) *Committer {
	if cfg.GroupLimit <= 0 {
		cfg.GroupLimit = defaultGroupLimit
	}
	if cfg.MaxPending == 0 {
		cfg.MaxPending = DefaultMaxPending
	}
	c := &Committer{cfg: cfg}
	c.cond = sync.NewCond(&c.mu)
	c.loopWG.Add(1)
	go c.loop(&c.loopWG)
	return c
}

// Submit enqueues a parsed batch for the next commit group and returns the
// Pending the caller should Wait on. After Close it returns ErrClosed;
// with Config.MaxPending batches already queued it returns ErrQueueFull
// without accepting the batch. Admission is decided before enqueueing:
// once Submit returns a Pending, the batch is queued and will be resolved,
// whatever later overflow rejects.
func (c *Committer) Submit(records []pathdb.Record, tag uint64) (*Pending, error) {
	p := NewPending(records, tag)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if c.cfg.MaxPending > 0 && c.pending >= c.cfg.MaxPending {
		c.rejected++
		c.mu.Unlock()
		return nil, ErrQueueFull
	}
	c.pending++
	c.queue = append(c.queue, item{p: p})
	c.cond.Signal()
	c.mu.Unlock()
	return p, nil
}

// Exec runs fn on the commit loop, serialized against commit groups and
// other Execs, and blocks until it has run. After Close it returns
// ErrClosed without running fn.
func (c *Committer) Exec(fn func()) error {
	done := make(chan struct{})
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.queue = append(c.queue, item{fn: func() {
		defer close(done)
		fn()
	}})
	c.cond.Signal()
	c.mu.Unlock()
	<-done
	return nil
}

// Close stops accepting work, drains everything already queued, and waits
// for the loop to exit. Safe to call more than once.
func (c *Committer) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.loopWG.Wait()
		return
	}
	c.closed = true
	c.cond.Signal()
	c.mu.Unlock()
	c.loopWG.Wait()
}

// loop is the single writer. Its lifetime is bounded by wg (joined in
// Close); it exits once closed and drained.
func (c *Committer) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		c.mu.Lock()
		for len(c.queue) == 0 && !c.closed {
			c.cond.Wait()
		}
		if len(c.queue) == 0 {
			// Closed and drained.
			c.mu.Unlock()
			return
		}
		if fn := c.queue[0].fn; fn != nil {
			c.queue = c.queue[1:]
			c.execs++
			c.mu.Unlock()
			fn()
			continue
		}
		// Group consecutive pendings up to the limit, stopping at the
		// first Exec so queue order is preserved.
		n := 0
		for n < len(c.queue) && n < c.cfg.GroupLimit && c.queue[n].fn == nil {
			n++
		}
		group := make([]*Pending, n)
		for i := 0; i < n; i++ {
			group[i] = c.queue[i].p
		}
		c.queue = c.queue[n:]
		c.pending -= n
		c.groups++
		c.requests += uint64(n)
		if n > c.maxGroup {
			c.maxGroup = n
		}
		if len(c.groupSizes) < 1024 {
			c.groupSizes = append(c.groupSizes, n)
		}
		c.mu.Unlock()

		c.cfg.Apply(group)
		for _, p := range group {
			if !p.resolved() {
				p.Resolve(nil, errors.New("ingest: commit group did not resolve this request"))
			}
		}
	}
}

// Stats is a point-in-time view of the committer's counters.
type Stats struct {
	// Groups is the number of commit groups applied.
	Groups uint64 `json:"groups"`
	// Requests is the number of append requests folded across all groups.
	Requests uint64 `json:"requests"`
	// Execs is the number of Exec functions run (reloads).
	Execs uint64 `json:"execs"`
	// Rejected is the number of Submits refused with ErrQueueFull.
	Rejected uint64 `json:"rejected"`
	// QueueDepth is the number of items waiting right now.
	QueueDepth int `json:"queue_depth"`
	// GroupP50 and GroupMax summarize commit-group sizes.
	GroupP50 int `json:"group_p50"`
	GroupMax int `json:"group_max"`
}

// Stats snapshots the committer's counters.
func (c *Committer) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Groups:     c.groups,
		Requests:   c.requests,
		Execs:      c.execs,
		Rejected:   c.rejected,
		QueueDepth: len(c.queue),
		GroupMax:   c.maxGroup,
	}
	if len(c.groupSizes) > 0 {
		sizes := append([]int(nil), c.groupSizes...)
		sort.Ints(sizes)
		st.GroupP50 = sizes[len(sizes)/2]
	}
	return st
}
