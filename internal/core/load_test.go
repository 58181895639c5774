package core_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"runtime"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/datagen"
	"flowcube/internal/hierarchy"
	"flowcube/internal/oracle"
)

// fixtureSnapshot is the Table-1 fixture cube's Save bytes.
func fixtureSnapshot(t testing.TB) []byte {
	_, cube := oracle.Table1(t, oracle.Cuts, oracle.Mined(0.5))
	return oracle.Save(t, cube)
}

// bytesAfterEnd are snap followed by something past its end section.
func bytesAfterEnd(snap []byte) map[string][]byte {
	return map[string][]byte{
		"garbage":     append(append([]byte(nil), snap...), "garbage after the end section"...), // 29 bytes
		"second copy": append(append([]byte(nil), snap...), snap...),
	}
}

// TestLoadersRejectBytesAfterEnd: the end section ends a snapshot. Bytes
// after it are a framing error for Load and LoadCubeLazy alike; LoadMeta,
// which stops at the plan, never sees them.
func TestLoadersRejectBytesAfterEnd(t *testing.T) {
	for name, data := range bytesAfterEnd(fixtureSnapshot(t)) {
		t.Run(name, func(t *testing.T) {
			wantFrame := func(what string, err error) {
				t.Helper()
				var cse *core.CorruptSnapshotError
				if !errors.As(err, &cse) || cse.Section != "frame" {
					t.Fatalf("%s: %v, want a *CorruptSnapshotError in section frame", what, err)
				}
			}
			_, err := core.Load(bytes.NewReader(data))
			wantFrame("Load", err)
			_, err = core.LoadCubeLazy(oracle.File(t, data), core.LazyOptions{})
			wantFrame("LoadCubeLazy", err)
			if _, err := core.LoadMeta(bytes.NewReader(data)); err != nil {
				t.Fatalf("LoadMeta: %v", err)
			}
		})
	}
}

// TestLyingLengthAllocatesNothing: a 54-byte input whose first frame claims
// the largest payload the format admits (1 GiB, maxSectionBytes) is corrupt
// to every loader, and none of them allocates anything near the claim —
// a stream of unknown length grows in bounded chunks.
func TestLyingLengthAllocatesNothing(t *testing.T) {
	data := append([]byte("FCUBEv2\n"), 1) // the header section's kind
	data = binary.AppendUvarint(data, 1<<30)
	data = append(data, make([]byte, 54-len(data))...)
	loaders := map[string]func() error{
		"Load":                   func() error { _, err := core.Load(bytes.NewReader(data)); return err },
		"Load of a plain stream": func() error { _, err := core.Load(io.MultiReader(bytes.NewReader(data))); return err },
		"LoadMeta":               func() error { _, err := core.LoadMeta(bytes.NewReader(data)); return err },
		"LoadCubeLazy":           func() error { _, err := core.LoadCubeLazy(oracle.File(t, data), core.LazyOptions{}); return err },
	}
	for name, load := range loaders {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := load()
		runtime.ReadMemStats(&after)
		wantCorrupt(t, name, err)
		if d := after.TotalAlloc - before.TotalAlloc; d >= 4<<20 {
			t.Errorf("%s allocated %d bytes for a %d-byte input", name, d, len(data))
		}
	}
}

// cancellingReader hands out data up to stop, cancels, and then the rest.
type cancellingReader struct {
	data      []byte
	off, stop int
	cancel    func()
}

func (r *cancellingReader) Read(p []byte) (int, error) {
	end := len(r.data)
	if r.off < r.stop {
		end = r.stop
	}
	n := copy(p, r.data[r.off:end])
	r.off += n
	if r.off == r.stop {
		r.cancel()
	}
	if n == 0 {
		return 0, io.EOF
	}
	return n, nil
}

// TestLoadContextCancelsBetweenSections cancels a load once its reader has
// handed over the preamble (magic, header, hierarchies, plan): LoadContext
// returns context.Canceled without reading a byte of the cuboid sections.
func TestLoadContextCancelsBetweenSections(t *testing.T) {
	data := fixtureSnapshot(t)
	preamble := len("FCUBEv2\n")
	for range 3 {
		n, w := binary.Uvarint(data[preamble+1:])
		preamble += 1 + w + int(n) + 4
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := &cancellingReader{data: data, stop: preamble, cancel: cancel}
	if _, err := core.LoadContext(ctx, r); !errors.Is(err, context.Canceled) {
		t.Fatalf("LoadContext: %v, want context.Canceled", err)
	}
	if r.off != preamble {
		t.Fatalf("read %d bytes past the %d-byte preamble after the cancel", r.off-preamble, preamble)
	}
}

// loadSink keeps the benchmarked loads from being optimized away.
var loadSink *core.Cube

// buildShaped builds a datagen cube shaped like the benchmark's build
// workload: three dimensions, 2000 paths, exceptions mined, τ = 0.5.
func buildShaped(b testing.TB) *core.Cube {
	gen := datagen.Default()
	gen.NumDims, gen.NumPaths = 3, 2000
	ds := datagen.MustGenerate(gen)
	cube := oracle.Build(b, ds.DB, core.Config{MinSupport: 0.01, Epsilon: 0.1, Tau: 0.5, Plan: ds.DefaultPlan(),
		MineExceptions: true, Workers: 2})
	return cube
}

// BenchmarkLoad times the snapshot reader on a snapshot of the build-shaped
// cube (about 2 MB): Load reads the file and decodes every cell,
// LoadCubeLazy maps and opens it, decoding none, and closes it,
// LoadCubeLazy+directories opens it, builds every section's directory (an
// EachCount over every cuboid, which steps over every flowgraph and decodes
// none) and closes it, and LoadCubeLazy+Verify is flowquery -load
// -summary's open: map, verify every cell, print the census from the
// directories Verify left, close.
func BenchmarkLoad(b *testing.B) {
	path := oracle.File(b, oracle.Save(b, buildShaped(b)))
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Load", func(b *testing.B) {
		b.SetBytes(st.Size())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f, err := os.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			loadSink, err = core.Load(f)
			_ = f.Close() // read-only
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("LoadCubeLazy", func(b *testing.B) {
		b.SetBytes(st.Size())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lazy, err := core.LoadCubeLazy(path, core.LazyOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if err := lazy.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("LoadCubeLazy+directories", func(b *testing.B) {
		b.SetBytes(st.Size())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lazy, err := core.LoadCubeLazy(path, core.LazyOptions{})
			if err != nil {
				b.Fatal(err)
			}
			for _, spec := range lazy.MaterializedSpecs() {
				if err := lazy.Cuboid(spec).EachCount(func([]hierarchy.NodeID, int64) {}); err != nil {
					b.Fatal(err)
				}
			}
			if err := lazy.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("LoadCubeLazy+Verify", func(b *testing.B) {
		b.SetBytes(st.Size())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lazy, err := core.LoadCubeLazy(path, core.LazyOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if err := lazy.Verify(context.Background()); err != nil {
				b.Fatal(err)
			}
			if lazy.CuboidSummaries() == nil {
				b.Fatal(lazy.LazyErr())
			}
			if err := lazy.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
