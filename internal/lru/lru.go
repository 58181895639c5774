// Package lru is the repository's one cache: a mutex-guarded,
// cost-budgeted LRU with single-flight computation. flowserve's response
// cache (cost 1 per rendered response) and the lazy loader's cache of
// section directories and decoded cells (cost = estimated decoded heap
// bytes) are both instances. The mutex
// guards only the bookkeeping; values are computed outside it.
package lru

import (
	"container/list"
	"sync"
)

// Cache maps keys to values of total cost at most the budget.
type Cache[K comparable, V any] struct {
	budget int64

	mu        sync.Mutex
	order     list.List // front = most recently used; values are *entry[K, V]
	items     map[K]*list.Element
	flights   map[K]*flight[V]
	cost      int64
	hits      int64
	misses    int64
	evictions int64
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	cost int64
}

// flight is one in-progress computation; waiters block on done.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Stats is a point-in-time snapshot of a cache's gauges and counters. A
// hit found the key resident, a miss ran fn; a caller that shared another's
// computation counts as neither.
type Stats struct {
	Entries   int
	Cost      int64
	Hits      int64
	Misses    int64
	Evictions int64
}

// New returns a cache holding values of total cost at most budget. A zero
// budget stores nothing (Do still deduplicates concurrent computations); a
// negative budget never evicts.
func New[K comparable, V any](budget int64) *Cache[K, V] {
	return &Cache[K, V]{
		budget:  budget,
		items:   make(map[K]*list.Element),
		flights: make(map[K]*flight[V]),
	}
}

// Budget returns the budget the cache was created with.
func (c *Cache[K, V]) Budget() int64 { return c.budget }

// Deadline is what a caller waiting on another caller's computation gives
// up on; a context.Context is one.
type Deadline interface {
	Done() <-chan struct{}
	Err() error
}

// Do returns the value for key, computing it and its cost with fn on a
// miss. Concurrent callers for the same key share one fn call and its
// result, error included; hit reports whether the caller avoided computing
// (the key was resident, or another caller's computation was shared).
// Errors are never stored: a later call retries. Storing a value evicts
// from the cold end until the budget holds, but never the only resident
// entry, so one value costlier than the whole budget still caches.
//
// A caller that would share another's computation waits for it until dl is
// done, then returns dl.Err(); the computation runs on, and stores its
// value for the next caller. A nil dl waits however long it runs. The
// caller that computes is bounded only by what fn watches.
func (c *Cache[K, V]) Do(dl Deadline, key K, fn func() (V, int64, error)) (v V, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		v := el.Value.(*entry[K, V]).val
		c.mu.Unlock()
		return v, true, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		var expired <-chan struct{} // nil: never ready
		if dl != nil {
			expired = dl.Done()
		}
		select {
		case <-f.done:
			return f.val, f.err == nil, f.err
		case <-expired:
			return v, false, dl.Err()
		}
	}
	f := &flight[V]{done: make(chan struct{})}
	c.flights[key] = f
	c.misses++
	c.mu.Unlock()

	var cost int64
	f.val, cost, f.err = fn()

	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil && c.budget != 0 {
		c.items[key] = c.order.PushFront(&entry[K, V]{key: key, val: f.val, cost: cost})
		c.cost += cost
		for c.budget > 0 && c.cost > c.budget && c.order.Len() > 1 {
			e := c.order.Remove(c.order.Back()).(*entry[K, V])
			delete(c.items, e.key)
			c.cost -= e.cost
			c.evictions++
		}
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, false, f.err
}

// Stats snapshots the cache's gauges and counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:   c.order.Len(),
		Cost:      c.cost,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
