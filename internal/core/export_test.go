package core

// SetMaxPackedKeyBitsForTest overrides the packed cell-key width cap so
// tests can force the binary-string key fallback on small schemas. The
// returned func restores the production value.
func SetMaxPackedKeyBitsForTest(n int) (restore func()) {
	old := maxPackedKeyBits
	maxPackedKeyBits = n
	return func() { maxPackedKeyBits = old }
}

// SectionCellRangesForTest returns, from a lazily loaded cube's directory,
// the [start, end) byte range of every cell of a cuboid's section payload in
// ascending key order, so corruption tests can cut a section at cell
// boundaries.
func (c *Cube) SectionCellRangesForTest(spec CuboidSpec) [][2]int {
	d, err := c.Cuboids[spec.Key()].base.dir()
	if err != nil {
		return nil
	}
	out := make([][2]int, len(d.entries))
	for i, e := range d.entries {
		out[i] = [2]int{int(e.off), int(e.end)}
	}
	return out
}
