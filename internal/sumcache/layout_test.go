package sumcache

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dbtf/internal/bitvec"
	"dbtf/internal/boolmat"
)

// poisonPool leaves, in the slab pool, all-ones arrays of exactly the
// classes a build over rows [lo, hi) of (m, groupBits) asks for: it builds
// once, overwrites both arrays of every group, and releases them. The next
// build draws them.
func poisonPool(m *boolmat.FactorMatrix, lo, hi, groupBits int) {
	c := NewFromFactorRows(m, lo, hi, groupBits)
	for gi := range c.groups {
		g := &c.groups[gi]
		for i := range g.words {
			g.words[i] = ^uint64(0)
		}
		for i := range g.pop {
			g.pop[i] = -1
		}
	}
	c.Release()
}

// checkTables compares every entry of every table with the naive OR of the
// columns its mask selects. The words are compared whole, so a stale bit
// beyond the entry width — which a BitVec reference never has — fails it.
func checkTables(t *testing.T, c *Cache, cols []*bitvec.BitVec) bool {
	t.Helper()
	for gi := range c.groups {
		g := &c.groups[gi]
		if len(g.pop) != 1<<uint(g.bits) || len(g.words) != len(g.pop)*g.stride {
			t.Errorf("group %d: %d popcounts and %d words for %d bits, stride %d", gi, len(g.pop), len(g.words), g.bits, g.stride)
			return false
		}
		for m := uint64(0); m < uint64(len(g.pop)); m++ {
			want := naiveSum(cols, c.width, m<<g.shift)
			if !slices.Equal(g.at(m), want.Words()) {
				t.Errorf("group %d entry %#x: words %x, naive %x", gi, m, g.at(m), want.Words())
				return false
			}
			if int(g.pop[m]) != want.OnesCount() {
				t.Errorf("group %d entry %#x: pop %d, naive %d", gi, m, g.pop[m], want.OnesCount())
				return false
			}
		}
	}
	return true
}

// TestTableMatchesNaiveOnDirtySlabs checks the flat layout exhaustively —
// every entry of every table, not sampled masks — over recycled memory
// that was all ones: "a build overwrites every word it is handed" is an
// invariant of two arrays per group and of both seedings (copied columns,
// transposed row masks), over the whole matrix and over a row range of it
// (unaligned start, running to the last row, zero width). The fixed shapes
// put both arrays of every group over the pool's 2 KiB floor; the random
// ones add the small and ragged.
func TestTableMatchesNaiveOnDirtySlabs(t *testing.T) {
	check := func(seed int64, r, v, rows, lo, hi int) bool {
		m := boolmat.RandomFactor(rand.New(rand.NewSource(seed)), rows, r, 0.3)
		cols := m.Columns()
		for i, col := range cols {
			cols[i] = col.Slice(lo, hi)
		}
		for _, build := range []func() *Cache{
			func() *Cache { return NewFromFactorRows(m, lo, hi, v) },
			func() *Cache { return New(cols, v) },
		} {
			poisonPool(m, lo, hi, v)
			c := build()
			ok := c.Width() == hi-lo && checkTables(t, c, cols)
			c.Release()
			if !ok {
				t.Logf("seed %d: R=%d V=%d rows [%d,%d) of %d, width %d", seed, r, v, lo, hi, rows, c.Width())
				return false
			}
		}
		return true
	}
	for _, tc := range [][5]int{
		{12, 15, 256, 0, 256}, {20, 10, 130, 0, 130}, {9, 9, 64, 0, 64}, {11, 11, 1, 0, 1},
		{12, 15, 300, 37, 293}, {20, 10, 200, 65, 200}, {9, 9, 640, 1, 129}, {12, 12, 70, 33, 33},
	} {
		if !check(1, tc[0], tc[1], tc[2], tc[3], tc[4]) {
			return
		}
	}
	f := func(seed int64, rRaw, vRaw uint8, wRaw, loRaw, hiRaw uint16) bool {
		rows := int(wRaw%700) + 1
		lo, hi := int(loRaw)%(rows+1), int(hiRaw)%(rows+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		if seed%3 == 0 {
			lo, hi = 0, rows // the full build, as often as a third of the draws
		}
		return check(seed, int(rRaw%20)+1, int(vRaw%13)+1, rows, lo, hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
