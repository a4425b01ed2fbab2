package sumcache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dbtf/internal/bitvec"
	"dbtf/internal/boolmat"
)

// naiveSum ORs the columns selected by mask — the uncached reference.
func naiveSum(cols []*bitvec.BitVec, width int, mask uint64) *bitvec.BitVec {
	out := bitvec.New(width)
	for r := 0; r < len(cols); r++ {
		if mask&(1<<uint(r)) != 0 {
			out.Or(cols[r])
		}
	}
	return out
}

// scratchFor returns Sum scratch for entries of width bits.
func scratchFor(width int) []uint64 {
	return make([]uint64, (width+bitvec.WordBits-1)/bitvec.WordBits)
}

// sumVec wraps the words Sum returns as a BitVec, for comparison against
// the BitVec references.
func sumVec(c *Cache, mask uint64, scratch []uint64) (*bitvec.BitVec, int) {
	words, pop := c.Sum(mask, scratch)
	return bitvec.Wrap(c.Width(), words), pop
}

func randomCols(rng *rand.Rand, r, width int) []*bitvec.BitVec {
	cols := make([]*bitvec.BitVec, r)
	for i := range cols {
		v := bitvec.New(width)
		for b := 0; b < width; b++ {
			if rng.Intn(3) == 0 {
				v.Set(b)
			}
		}
		cols[i] = v
	}
	return cols
}

// factorOf returns the factor matrix whose columns are cols, for the
// builds that take one.
func factorOf(cols []*bitvec.BitVec, rows int) *boolmat.FactorMatrix {
	m := boolmat.NewFactor(rows, len(cols))
	for r, col := range cols {
		col.Range(func(i int) { m.Set(i, r, true) })
	}
	return m
}

func TestSingleGroupMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cols := randomCols(rng, 8, 50)
	c := New(cols, DefaultGroupBits)
	if c.NumGroups() != 1 {
		t.Fatalf("NumGroups = %d, want 1", c.NumGroups())
	}
	scratch := scratchFor(50)
	for mask := uint64(0); mask < 256; mask++ {
		want := naiveSum(cols, 50, mask)
		got, pop := sumVec(c, mask, scratch)
		if !got.Equal(want) {
			t.Fatalf("mask %#x: cached sum != naive", mask)
		}
		if pop != want.OnesCount() {
			t.Fatalf("mask %#x: pop = %d, want %d", mask, pop, want.OnesCount())
		}
	}
}

func TestMultiGroupMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cols := randomCols(rng, 11, 40)
	c := New(cols, 4) // V=4 → ⌈11/4⌉ = 3 groups
	if c.NumGroups() != 3 {
		t.Fatalf("NumGroups = %d, want 3", c.NumGroups())
	}
	scratch := scratchFor(40)
	for trial := 0; trial < 500; trial++ {
		mask := rng.Uint64() & ((1 << 11) - 1)
		want := naiveSum(cols, 40, mask)
		got, pop := sumVec(c, mask, scratch)
		if !got.Equal(want) {
			t.Fatalf("mask %#x: cached sum != naive", mask)
		}
		if pop != want.OnesCount() {
			t.Fatalf("mask %#x: pop mismatch", mask)
		}
	}
}

func TestLemma2GroupCounts(t *testing.T) {
	// Lemma 2: ⌈R/V⌉ tables, each of size 2^⌈R/⌈R/V⌉⌉.
	cases := []struct {
		r, v              int
		groups, tableSize int
	}{
		{18, 10, 2, 1 << 9}, // the paper's example: two tables of 2^9
		{10, 15, 1, 1 << 10},
		{15, 15, 1, 1 << 15},
		{16, 15, 2, 1 << 8},
		{20, 15, 2, 1 << 10},
		{31, 10, 4, 1 << 8},
	}
	for _, tc := range cases {
		cols := make([]*bitvec.BitVec, tc.r)
		for i := range cols {
			cols[i] = bitvec.New(4)
		}
		c := New(cols, tc.v)
		if c.NumGroups() != tc.groups {
			t.Errorf("R=%d V=%d: groups = %d, want %d", tc.r, tc.v, c.NumGroups(), tc.groups)
		}
		maxTable := 0
		total := 0
		for _, g := range c.groups {
			if len(g.pop) > maxTable {
				maxTable = len(g.pop)
			}
			total += len(g.pop)
		}
		if maxTable != tc.tableSize {
			t.Errorf("R=%d V=%d: largest table = %d, want %d", tc.r, tc.v, maxTable, tc.tableSize)
		}
		if c.Entries() != total {
			t.Errorf("Entries() = %d, want %d", c.Entries(), total)
		}
	}
}

func TestGroupsCoverAllBitsDisjointly(t *testing.T) {
	cols := make([]*bitvec.BitVec, 23)
	for i := range cols {
		cols[i] = bitvec.New(4)
	}
	c := New(cols, 7)
	var covered uint64
	for _, g := range c.groups {
		gm := g.mask << g.shift
		if covered&gm != 0 {
			t.Fatal("groups overlap")
		}
		covered |= gm
	}
	if covered != (1<<23)-1 {
		t.Fatalf("groups cover %#x, want all 23 bits", covered)
	}
}

func TestZeroRank(t *testing.T) {
	c := New(nil, 15)
	scratch := scratchFor(0)
	sum, pop := sumVec(c, 0, scratch)
	if sum.OnesCount() != 0 || pop != 0 {
		t.Fatal("zero-rank cache returned nonzero sum")
	}
}

func TestNewFromFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := boolmat.RandomFactor(rng, 30, 6, 0.3)
	c := NewFromFactor(b, DefaultGroupBits)
	if c.Width() != 30 || c.Rank() != 6 {
		t.Fatalf("cache shape width=%d rank=%d", c.Width(), c.Rank())
	}
	scratch := scratchFor(30)
	for mask := uint64(0); mask < 64; mask++ {
		want := naiveSum(b.Columns(), 30, mask)
		if got, _ := sumVec(c, mask, scratch); !got.Equal(want) {
			t.Fatalf("mask %#x mismatch", mask)
		}
	}
}

func TestMismatchedColumnLengthsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched column lengths")
		}
	}()
	New([]*bitvec.BitVec{bitvec.New(3), bitvec.New(4)}, 15)
}

func TestSliceMatchesSlicedNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cols := randomCols(rng, 9, 64)
	m := factorOf(cols, 64)
	for _, rng2 := range [][2]int{{0, 64}, {10, 30}, {0, 1}, {63, 64}, {20, 20}} {
		lo, hi := rng2[0], rng2[1]
		sliced := NewFromFactorRows(m, lo, hi, 4)
		if sliced.Width() != hi-lo {
			t.Fatalf("sliced width = %d", sliced.Width())
		}
		scratch := scratchFor(hi - lo)
		for trial := 0; trial < 200; trial++ {
			mask := rng.Uint64() & ((1 << 9) - 1)
			want := naiveSum(cols, 64, mask).Slice(lo, hi)
			got, pop := sumVec(sliced, mask, scratch)
			if !got.Equal(want) {
				t.Fatalf("slice [%d,%d) mask %#x mismatch", lo, hi, mask)
			}
			if pop != want.OnesCount() {
				t.Fatalf("slice [%d,%d) mask %#x pop mismatch", lo, hi, mask)
			}
		}
	}
}

func TestSliceOutOfRangePanics(t *testing.T) {
	m := factorOf(randomCols(rand.New(rand.NewSource(5)), 3, 10), 10)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewFromFactorRows(m, 5, 11, 15)
}

func TestQuickCacheEqualsNaiveAnyV(t *testing.T) {
	f := func(seed int64, rRaw, vRaw, wRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		r := int(rRaw%13) + 1
		v := int(vRaw%6) + 1
		width := int(wRaw%100) + 1
		cols := randomCols(rng, r, width)
		c := New(cols, v)
		scratch := scratchFor(width)
		for trial := 0; trial < 20; trial++ {
			mask := rng.Uint64() & ((1 << uint(r)) - 1)
			got, pop := sumVec(c, mask, scratch)
			want := naiveSum(cols, width, mask)
			if !got.Equal(want) || pop != want.OnesCount() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cols := randomCols(rng, 15, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = New(cols, 15)
	}
}

func BenchmarkSumSingleGroup(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := New(randomCols(rng, 12, 256), 15)
	scratch := scratchFor(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = c.Sum(uint64(i)&0xfff, scratch)
	}
}

func BenchmarkSumMultiGroup(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := New(randomCols(rng, 24, 256), 8)
	scratch := scratchFor(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = c.Sum(uint64(i)&0xffffff, scratch)
	}
}
