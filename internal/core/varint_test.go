package core

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// TestVarintFastPaths: uvarint, varint and count decode what encoding/binary
// encodes, one-byte values (the fast path) and longer ones alike, and fail
// where binary.Uvarint does.
func TestVarintFastPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	values := []int64{0, 1, -1, 63, -64, 64, -65, 127, 128, 1 << 40, -1 << 40}
	for i := 0; i < 200; i++ {
		values = append(values, rng.Int63n(1<<uint(rng.Intn(62)+1))-rng.Int63n(1<<20))
	}
	for _, v := range values {
		s := &byteReader{buf: binary.AppendVarint(nil, v)}
		if got, err := s.varint(); err != nil || got != v || s.rem() != 0 {
			t.Fatalf("varint(%d) = %d, %v with %d bytes left", v, got, err, s.rem())
		}
		u := uint64(v) >> 1
		r := &byteReader{buf: append(binary.AppendUvarint(nil, u), make([]byte, 1<<10)...)}
		if got, err := r.uvarint(); err != nil || got != u || r.rem() != 1<<10 {
			t.Fatalf("uvarint(%d) = %d, %v with %d bytes left", u, got, err, r.rem())
		}
		c := &byteReader{buf: append(binary.AppendUvarint(nil, u), make([]byte, 1<<10)...)}
		n, err := c.count("x")
		if want := u <= 1<<10; (err == nil) != want || want && uint64(n) != u {
			t.Fatalf("count(%d) with 1024 bytes left = %d, %v", u, n, err)
		}
	}
	// A one-byte count may claim every remaining byte, and no more.
	for _, rem := range []int{0, 1, 5, 127} {
		ok := append([]byte{byte(rem)}, make([]byte, rem)...)
		if n, err := (&byteReader{buf: ok}).count("x"); err != nil || n != rem {
			t.Errorf("count %d with %d bytes left = %d, %v", rem, rem, n, err)
		}
		if _, err := (&byteReader{buf: ok[:len(ok)-1]}).count("x"); rem > 0 && err == nil {
			t.Errorf("count %d with %d bytes left accepted", rem, rem-1)
		}
	}
	for _, bad := range [][]byte{nil, {0x80}, {0xff, 0xff}} {
		if _, err := (&byteReader{buf: bad}).uvarint(); err == nil {
			t.Errorf("uvarint accepts %x", bad)
		}
		if _, err := (&byteReader{buf: bad}).varint(); err == nil {
			t.Errorf("varint accepts %x", bad)
		}
		if _, err := (&byteReader{buf: bad}).count("x"); err == nil {
			t.Errorf("count accepts %x", bad)
		}
	}
}
