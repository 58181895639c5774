// Seeded-bad fixtures for locksafe's fact-driven half: mutexes held across
// module calls whose blocking the fact table proves, including across
// package boundaries.
package lockblock

import (
	"sync"

	"flowcube/internal/lint/testdata/lockblock/dep"
	"flowcube/internal/lint/testdata/lockblock/relay"
)

type cache struct {
	mu sync.Mutex
}

// refresh holds the lock across a call whose blocking lives in another
// package — invisible to any per-file analysis, proven by the facts.
func (c *cache) refresh(url string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return dep.Fetch(url) // want `call to flowcube/internal/lint/testdata/lockblock/dep\.Fetch \(blocks: net; net/http\.Get\) while holding c\.mu`
}

// slowLocal parks on a channel; same-package facts classify it too.
func slowLocal(ch chan int) int {
	return <-ch
}

func (c *cache) refreshLocal(ch chan int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slowLocal(ch) // want `call to flowcube/internal/lint/testdata/lockblock\.slowLocal \(blocks: chan; channel receive\) while holding c\.mu`
}

// refreshVia reaches the network through two fixture packages: relay
// imports its sibling dep, and the facts carry the blocking across both.
func (c *cache) refreshVia(url string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return relay.Refresh(url) // want `call to flowcube/internal/lint/testdata/lockblock/relay\.Refresh \(blocks: net; calls flowcube/internal/lint/testdata/lockblock/dep\.Fetch\) while holding c\.mu`
}
