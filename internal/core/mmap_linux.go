//go:build linux && !nommap

package core

// mmap-backed snapshot data for the lazy loader: the file is mapped
// read-only and views are zero-copy subslices of the mapping. The fd is
// closed right after mapping — the mapping keeps the pages alive — so a
// lazily opened cube costs no descriptor for its lifetime.

import (
	"fmt"
	"os"
	"syscall"
)

// snapMapped reports whether this build serves lazy cubes from an mmap
// (true here; false in the pread fallback).
const snapMapped = true

type mmapData struct {
	b []byte
}

// openSnapshotData maps f read-only and takes ownership of it: the
// descriptor is closed before returning (the mapping survives it).
func openSnapshotData(f *os.File, size int64) (snapData, error) {
	if size == 0 {
		_ = f.Close() // nothing mapped; close error carries no information
		return &mmapData{}, nil
	}
	if size != int64(int(size)) {
		_ = f.Close()
		return nil, fmt.Errorf("core: snapshot of %d bytes exceeds the addressable mapping size", size)
	}
	b, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("core: mmap snapshot: %w", err)
	}
	return &mmapData{b: b}, nil
}

func (d *mmapData) size() int64 { return int64(len(d.b)) }

func (d *mmapData) view(off, n int64) ([]byte, error) { return viewOf(d.b, off, n) }

func (d *mmapData) close() error {
	if d.b == nil {
		return nil
	}
	b := d.b
	d.b = nil
	return syscall.Munmap(b)
}
