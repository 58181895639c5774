package core_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/oracle"
)

// TestVerify: on a healthy snapshot Verify succeeds without decoding a
// cell and leaves every section's directory resident, so the census after
// it walks nothing; a cancelled Verify reports the cancellation and records
// no snapshot error; a cube with no mapped snapshot has nothing to verify.
func TestVerify(t *testing.T) {
	eager, lazy := lazyFixture(t, core.LazyOptions{})
	ctx := context.Background()
	if err := eager.Verify(ctx); err != nil {
		t.Fatalf("Verify of an in-memory cube: %v", err)
	}
	if err := lazy.Verify(ctx); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	st, _ := lazy.LazyStats()
	if st.DecodedCells != 0 || st.CachedEntries != st.Sections {
		t.Fatalf("after Verify: %d cells decoded, %d entries resident; want 0 and the %d directories",
			st.DecodedCells, st.CachedEntries, st.Sections)
	}
	lazy.CuboidSummaries()
	if after, _ := lazy.LazyStats(); after.CacheMisses != st.CacheMisses {
		t.Fatalf("the census after Verify missed the cache %d times", after.CacheMisses-st.CacheMisses)
	}
	// A second Verify walks every section again and changes nothing.
	if err := lazy.Verify(ctx); err != nil {
		t.Fatalf("second Verify: %v", err)
	}

	_, cold := lazyFixture(t, core.LazyOptions{})
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := cold.Verify(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Verify: %v, want context.Canceled", err)
	}
	if err := cold.LazyErr(); err != nil {
		t.Fatalf("a cancelled Verify recorded %v", err)
	}
}

// TestVerifyRejectsWhatLoadRejects flips, zeroes or randomizes bytes inside
// the cuboid sections of the build-shaped snapshot and re-stamps the
// section checksum, so the framing holds and the cell decoders are what is
// tested: Verify on a fresh lazy open must agree with Load on every
// mutation — both accept, or both reject with the same error — and record
// its error for LazyErr.
func TestVerifyRejectsWhatLoadRejects(t *testing.T) {
	t.Parallel()
	snap := oracle.Save(t, buildShaped(t))
	intact, err := core.Load(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	sections := len(intact.Cuboids)
	mutations := 64
	if testing.Short() {
		mutations = 16
	}
	path := filepath.Join(t.TempDir(), "mutated.fcb")
	rng := rand.New(rand.NewSource(1))
	rejected := 0
	for i := 0; i < mutations; i++ {
		idx, op := rng.Intn(sections), rng.Intn(3)
		var at int
		mutated := oracle.RewriteSection(t, snap, oracle.SecCuboid, idx, func(p []byte) []byte {
			at = rng.Intn(len(p))
			switch op {
			case 0:
				p[at] ^= 1 << rng.Intn(8)
			case 1:
				p[at] = 0
			default:
				p[at] = byte(rng.Intn(256))
			}
			return p
		})
		_, loadErr := core.Load(bytes.NewReader(mutated))
		if err := os.WriteFile(path, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		verifyErr := func() error {
			lazy, err := core.LoadCubeLazy(path, core.LazyOptions{})
			if err != nil {
				return err
			}
			defer lazy.Close()
			err = lazy.Verify(context.Background())
			if lerr := lazy.LazyErr(); lerr != err {
				t.Fatalf("mutation %d: Verify returned %v, LazyErr reports %v", i, err, lerr)
			}
			return err
		}()
		if (loadErr == nil) != (verifyErr == nil) || loadErr != nil && loadErr.Error() != verifyErr.Error() {
			t.Fatalf("mutation %d (op %d at byte %d of cuboid section %d): Verify %v, Load %v",
				i, op, at, idx, verifyErr, loadErr)
		}
		if loadErr != nil {
			rejected++
		}
	}
	if rejected == 0 || rejected == mutations {
		t.Fatalf("%d of %d mutations rejected; the test needs both outcomes", rejected, mutations)
	}
	t.Logf("%d of %d mutations rejected by both", rejected, mutations)
}

// TestLazyVerifyRacesReaders runs Verify on a lazy cube while readers
// decode its cells and census through the same cache (run under -race
// -count=10 in CI): Verify installs directories beside the readers' own
// builds, and every answer must match the eager cube.
func TestLazyVerifyRacesReaders(t *testing.T) {
	eager, lazy := lazyFixture(t, core.LazyOptions{CacheBytes: 1 << 12})
	want := eager.CuboidSummaries()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for _, cb := range eager.Cuboids {
				for _, cell := range cb.SortedCells() {
					got, ok := lazy.Cell(cb.Spec, cell.Values)
					if !ok || core.CellDigest(got) != core.CellDigest(cell) {
						t.Errorf("cell %v of %s differs from the eager cube beside Verify", cell.Values, cb.Spec.Key())
						return
					}
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := lazy.Verify(context.Background()); err != nil {
				t.Errorf("Verify beside readers: %v", err)
			}
			if got := lazy.CuboidSummaries(); len(got) != len(want) {
				t.Errorf("census beside Verify lists %d cuboids, want %d", len(got), len(want))
			}
		}()
	}
	close(start)
	wg.Wait()
	if err := lazy.LazyErr(); err != nil {
		t.Fatalf("healthy snapshot recorded %v", err)
	}
}
