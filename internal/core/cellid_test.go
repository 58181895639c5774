package core_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"flowcube/internal/core"
	"flowcube/internal/hierarchy"
)

// cellKey is the decimal rendering of a cell ("12,3"), whose string order
// is the cell order sections, ledgers and answers carry: the reference
// core.CompareCells must agree with.
func cellKey(values []hierarchy.NodeID) string {
	parts := make([]string, len(values))
	for i, v := range values {
		parts[i] = strconv.Itoa(int(v))
	}
	return strings.Join(parts, ",")
}

// boundaryValues are where decimal and numeric order part: digit-count
// steps, a value against a longer one it prefixes, the int32 extremes, and
// negatives (a corrupt ledger entry decodes to one).
var boundaryValues = []hierarchy.NodeID{
	0, 1, 2, 9, 10, 11, 12, 19, 99, 100, 101, 120, 999, 1000,
	math.MaxInt32 - 1, math.MaxInt32, -1, -9, -10, -12, math.MinInt32,
}

func checkCompareCells(t *testing.T, a, b []hierarchy.NodeID) {
	t.Helper()
	if got, want := core.CompareCells(a, b), strings.Compare(cellKey(a), cellKey(b)); got != want {
		t.Fatalf("CompareCells(%v, %v) = %d, the decimal keys %q and %q compare %d", a, b, got, cellKey(a), cellKey(b), want)
	}
}

// TestCompareCellsMatchesDecimalKeys: over every pair of boundary values,
// every pair of two-dimension tuples drawn from them, and random tuples of
// mixed magnitude and width, CompareCells orders as the decimal keys do.
func TestCompareCellsMatchesDecimalKeys(t *testing.T) {
	var tuples [][]hierarchy.NodeID
	for _, x := range boundaryValues {
		tuples = append(tuples, []hierarchy.NodeID{x})
		for _, y := range boundaryValues {
			tuples = append(tuples, []hierarchy.NodeID{x, y})
		}
	}
	for _, a := range tuples {
		for _, b := range tuples {
			checkCompareCells(t, a, b)
		}
	}
	rng := rand.New(rand.NewSource(1))
	draw := func() []hierarchy.NodeID {
		v := make([]hierarchy.NodeID, 1+rng.Intn(4))
		for d := range v {
			v[d] = hierarchy.NodeID(rng.Int63n(int64(math.Pow10(rng.Intn(10)))) + 1)
			if rng.Intn(8) == 0 {
				v[d] = boundaryValues[rng.Intn(len(boundaryValues))]
			}
		}
		return v
	}
	for range 20000 {
		checkCompareCells(t, draw(), draw())
	}
}

// cellBytes packs values as CellID bytes, the fuzz target's input form.
func cellBytes(values ...hierarchy.NodeID) []byte {
	var b []byte
	for _, v := range values {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}

// FuzzCompareCells: for any two tuples, CompareCells orders as the decimal
// keys do, and a tuple's CellID names it alone.
func FuzzCompareCells(f *testing.F) {
	f.Add(cellBytes(0), cellBytes(9))
	f.Add(cellBytes(9), cellBytes(10))
	f.Add(cellBytes(99), cellBytes(100))
	f.Add(cellBytes(1, 5), cellBytes(12, 3))
	f.Add(cellBytes(math.MaxInt32, 0), cellBytes(math.MaxInt32-1, 7))
	f.Add(cellBytes(-1, 2), cellBytes(math.MinInt32))
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		decode := func(b []byte) []hierarchy.NodeID {
			v := make([]hierarchy.NodeID, len(b)/4)
			for d := range v {
				v[d] = hierarchy.NodeID(binary.LittleEndian.Uint32(b[4*d:]))
			}
			return v
		}
		a, b := decode(ab), decode(bb)
		checkCompareCells(t, a, b)
		if (core.MakeCellID(a) == core.MakeCellID(b)) != (cellKey(a) == cellKey(b)) {
			t.Fatalf("CellIDs of %v and %v disagree with their decimal keys on equality", a, b)
		}
	})
}
