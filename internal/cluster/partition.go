// Package cluster is the read path over a horizontally split flowcube (see
// DESIGN.md §10): a rendezvous-hashing partitioner over cell values, an
// in-memory splitter that carves one cube into per-shard cubes, and a
// stateless scatter-gather router that presents shard servers behind the
// single-node HTTP read API. Nothing here writes: shard cubes are served
// as they were split.
package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/bits"

	"flowcube/internal/hierarchy"
	"flowcube/internal/pathdb"
)

// Partitioner maps a cell's per-dimension values to the shard that owns it.
// The domain is a 64-bit reduction of the values: per-dimension node ids
// packed into one uint64 when the schema's combined bit width fits, an
// FNV-1a hash of their core.CellID bytes otherwise. Ownership is decided
// by rendezvous (highest-random-weight) hashing: each shard scores the key
// through its own salt and the highest score wins. The mapping is a pure
// function of (schema shape, shard count, values) — no state, so every
// process that builds a Partitioner with the same inputs agrees, across
// restarts and across machines.
//
// Cell values uniquely encode their item abstraction level (a dimension
// aggregated to '*' holds hierarchy.Root, and distinct levels occupy
// disjoint id ranges), so hashing values alone keeps a cell and its sub-δ
// ledger entry — which carries no cuboid spec — on the same shard.
type Partitioner struct {
	shards int
	packed bool
	shifts []uint
	salts  []uint64
}

// NewPartitioner builds the partitioner for a schema and shard count.
func NewPartitioner(schema *pathdb.Schema, shards int) (*Partitioner, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("cluster: shard count %d, want positive", shards)
	}
	p := &Partitioner{shards: shards, shifts: make([]uint, len(schema.Dims))}
	total := uint(0)
	for d, h := range schema.Dims {
		w := uint(bits.Len(uint(h.Len() - 1)))
		if w == 0 {
			w = 1
		}
		p.shifts[d] = total
		total += w
	}
	p.packed = total <= 64
	p.salts = make([]uint64, shards)
	for s := range p.salts {
		p.salts[s] = mix64(uint64(s) + 1)
	}
	return p, nil
}

// Key reduces per-dimension values to the 64-bit hashing domain: the packed
// cell key when it fits, an FNV-1a hash of the fixed-width binary key
// otherwise. Injective in the packed case, which is every realistic schema.
func (p *Partitioner) Key(values []hierarchy.NodeID) uint64 {
	if p.packed {
		var key uint64
		for d, v := range values {
			key |= uint64(uint32(v)) << p.shifts[d]
		}
		return key
	}
	h := fnv.New64a()
	var buf [4]byte
	for _, v := range values {
		binary.LittleEndian.PutUint32(buf[:], uint32(v))
		h.Write(buf[:]) //nolint:errcheck // hash.Hash Write never fails
	}
	return h.Sum64()
}

// Owner returns the shard index owning the cell with these values.
func (p *Partitioner) Owner(values []hierarchy.NodeID) int {
	return p.OwnerKey(p.Key(values))
}

// OwnerKey returns the shard owning a 64-bit cell key: the rendezvous
// winner, i.e. the shard whose salted mix of the key scores highest (lowest
// index breaks ties). Removing or adding one shard moves only the keys that
// shard wins — the classic HRW stability property.
func (p *Partitioner) OwnerKey(key uint64) int {
	best := 0
	bestScore := mix64(key ^ p.salts[0])
	for s := 1; s < p.shards; s++ {
		if score := mix64(key ^ p.salts[s]); score > bestScore {
			best, bestScore = s, score
		}
	}
	return best
}

// mix64 is the splitmix64 finalizer: a cheap, well-dispersed bijection on
// uint64 used both to derive per-shard salts and to score keys. Fixed
// constants keep the shard mapping stable across builds and platforms.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
