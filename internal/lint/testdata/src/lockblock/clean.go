// Clean-path fixtures for locksafe. Any finding in this file fails the
// golden test.
package lockblock

import (
	"sync"

	"flowcube/internal/lint/testdata/lockblock/dep"
)

type registry struct {
	mu sync.Mutex
	n  int
}

// released drops the lock before the blocking call.
func (r *registry) released(url string) error {
	r.mu.Lock()
	r.n++
	r.mu.Unlock()
	return dep.Fetch(url)
}

// quick holds the lock across a non-blocking callee only.
func (r *registry) quick() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return dep.Quick()
}

// pinned documents a deliberate hold-across-blocking with the suppression
// directive the production allowlist uses; the reason is mandatory.
func (r *registry) pinned(url string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	//flowlint:ignore locksafe deliberate single-flight: concurrent refreshes must queue here
	return dep.Fetch(url)
}
