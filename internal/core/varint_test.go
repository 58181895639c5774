package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// skipVarintsByByte is the byte-at-a-time loop skipVarints replaced: the
// reference its word-at-a-time walk must match in end offset, error and
// error offset.
func skipVarintsByByte(r *byteReader, k int, what string) error {
	for i := 0; i < k; i++ {
		for {
			if r.off >= len(r.buf) {
				return r.corrupt("truncated %s at offset %d", what, r.off)
			}
			b := r.buf[r.off]
			r.off++
			if b < 0x80 {
				break
			}
		}
	}
	return nil
}

// TestSkipVarintsMatchesByteLoop compares skipVarints with the byte loop
// from every start offset and for every count up to past the buffer's
// terminators, over random bytes of several terminator densities,
// all-continuation runs, terminators on the 8-byte boundaries and buffers
// shorter than a word.
func TestSkipVarintsMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inputs := map[string][]byte{"empty": nil}
	for _, n := range []int{1, 3, 7, 8, 9, 15, 16, 17, 40} {
		cont := make([]byte, n)
		for i := range cont {
			cont[i] = 0x80 | byte(rng.Intn(128))
		}
		inputs[fmt.Sprintf("continuation/%d", n)] = cont
		edges := append([]byte(nil), cont...)
		for i := 7; i < n; i += 8 {
			edges[i] &^= 0x80 // terminators on the last byte of each word
		}
		inputs[fmt.Sprintf("word ends/%d", n)] = edges
		starts := append([]byte(nil), cont...)
		for i := 0; i < n; i += 8 {
			starts[i] &^= 0x80 // and on the first
		}
		inputs[fmt.Sprintf("word starts/%d", n)] = starts
		for _, density := range []int{2, 4, 16} {
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = byte(rng.Intn(256))
				if rng.Intn(density) != 0 {
					buf[i] |= 0x80
				} else {
					buf[i] &^= 0x80
				}
			}
			inputs[fmt.Sprintf("random 1/%d/%d", density, n)] = buf
		}
	}
	for name, buf := range inputs {
		for start := 0; start <= len(buf); start++ {
			for k := 0; k <= len(buf)-start+2; k++ {
				want := &byteReader{section: "s", buf: buf, off: start}
				got := &byteReader{section: "s", buf: buf, off: start}
				wantErr := skipVarintsByByte(want, k, "pool")
				gotErr := got.skipVarints(k, "pool")
				if got.off != want.off || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s from %d, k=%d: offset %d, error %v; byte loop: offset %d, error %v",
						name, start, k, got.off, gotErr, want.off, wantErr)
				}
			}
		}
	}
}

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
