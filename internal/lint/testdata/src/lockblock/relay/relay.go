// Package relay imports its sibling fixture package dep, so the fixture
// loader must type-check dep before relay and hand relay the same package.
package relay

import "flowcube/internal/lint/testdata/lockblock/dep"

// Refresh blocks only through dep.Fetch.
func Refresh(url string) error {
	return dep.Fetch(url)
}
