package sumcache

import (
	"math/rand"
	"sync"
	"testing"

	"dbtf/internal/bitvec"
)

// deltaBits materializes the delta region described by d as a bit vector:
// (W1 &^ W0) minus every occluder.
func deltaBits(d *Delta, width int) *bitvec.BitVec {
	out := bitvec.New(width)
	if d.Empty() {
		return out
	}
	for j := 0; j < width; j++ {
		wi, bm := j>>6, uint64(1)<<(uint(j)&63)
		set := d.W1[wi]&bm != 0 && d.W0[wi]&bm == 0
		for _, occ := range d.Occ {
			set = set && occ[wi]&bm == 0
		}
		if set {
			out.Set(j)
		}
	}
	return out
}

// TestSumDeltaMatchesSums checks, for full and row-range tables at several
// group splits, that the delta region equals sum(mask|bit) &^ sum(mask)
// and that Pop is the unoccluded gain popcount, for every (mask, bit)
// pair with the bit not in the mask.
func TestSumDeltaMatchesSums(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const r, width = 9, 70
	cols := randomCols(rng, r, width)
	for _, groupBits := range []int{2, 4, DefaultGroupBits} {
		for _, tc := range []struct {
			name  string
			c     *Cache
			width int
		}{
			{"full", New(cols, groupBits), width},
			{"range", NewFromFactorRows(factorOf(cols, width), 13, 49, groupBits), 49 - 13},
		} {
			scratch := scratchFor(tc.width)
			var d Delta
			for mask := uint64(0); mask < 1<<r; mask++ {
				for b := 0; b < r; b++ {
					bit := uint64(1) << uint(b)
					if mask&bit != 0 {
						continue
					}
					sum0, _ := sumVec(tc.c, mask, scratch)
					sum0 = sum0.Copy() // scratch may back both sums
					sum1, _ := sumVec(tc.c, mask|bit, scratch)
					want := sum1.Copy()
					want.AndNot(sum0)
					tc.c.SumDelta(mask, bit, &d)
					if got := deltaBits(&d, tc.width); !got.Equal(want) {
						t.Fatalf("V=%d %s mask=%#x bit=%d: delta region mismatch",
							groupBits, tc.name, mask, b)
					}
					if !d.Empty() {
						// Pop is the within-group gain at this cache's
						// width: |entry1 &^ entry0|.
						wantPop := bitvec.AndNotCountWords(d.W1, d.W0)
						if d.Pop != wantPop {
							t.Fatalf("V=%d %s mask=%#x bit=%d: Pop=%d want %d",
								groupBits, tc.name, mask, b, d.Pop, wantPop)
						}
					}
				}
			}
		}
	}
}

// TestSumDeltaEmptySkipsWork checks the popcount short-circuit: when the
// added bit's column contributes nothing new within its group, SumDelta
// reports an empty delta.
func TestSumDeltaEmptySkipsWork(t *testing.T) {
	// Column 1 duplicates column 0, so adding bit 1 to any mask that
	// already has bit 0 gains nothing.
	width := 40
	c0 := bitvec.New(width)
	for _, j := range []int{3, 17, 39} {
		c0.Set(j)
	}
	cols := []*bitvec.BitVec{c0, c0.Copy()}
	sl := NewFromFactorRows(factorOf(cols, width), 10, 30, DefaultGroupBits)
	var d Delta
	sl.SumDelta(1, 2, &d) // mask has bit 0; adding bit 1 duplicates it
	if !d.Empty() {
		t.Fatal("delta of a duplicate column should be empty")
	}
}

// TestLazySliceMaterializesOnDemand keeps its name from the lazily sliced
// views it was written for; a row-range table is built whole, with the
// capacity of the full one, and serves the sliced sums.
func TestLazySliceMaterializesOnDemand(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cols := randomCols(rng, 6, 64)
	full := New(cols, DefaultGroupBits)
	sl := NewFromFactorRows(factorOf(cols, 64), 5, 41, DefaultGroupBits)
	if got, want := sl.Entries(), full.Entries(); got != want {
		t.Fatalf("range table capacity %d, want %d", got, want)
	}
	scratch := scratchFor(sl.Width())
	sum, pop := sumVec(sl, 0b101, scratch)
	want := naiveSum(cols, 64, 0b101).Slice(5, 41)
	if !sum.Equal(want) || pop != want.OnesCount() {
		t.Fatal("range table sum differs from naive slice")
	}
}

// TestSliceOfSliceStaysOneLevel checks a range table against the tables
// over wider ranges that contain it: every sum equals the wider table's sum
// cut to the range, whichever table the cut is taken from.
func TestSliceOfSliceStaysOneLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cols := randomCols(rng, 5, 80)
	m := factorOf(cols, 80)
	full, outer, inner := New(cols, DefaultGroupBits), NewFromFactorRows(m, 10, 60, DefaultGroupBits), NewFromFactorRows(m, 15, 40, DefaultGroupBits)
	for mask := uint64(0); mask < 1<<5; mask++ {
		sum, pop := sumVec(inner, mask, scratchFor(inner.Width()))
		fromFull, _ := sumVec(full, mask, scratchFor(80))
		fromOuter, _ := sumVec(outer, mask, scratchFor(50))
		if want := fromFull.Slice(15, 40); !sum.Equal(want) || !sum.Equal(fromOuter.Slice(5, 30)) || pop != want.OnesCount() {
			t.Fatalf("mask %#x: nested range sum mismatch", mask)
		}
	}
}

// TestLazySliceConcurrentReaders hammers one row-range table from many
// goroutines (the sharing pattern of partitions co-located on a machine);
// run under -race this pins that a built table is only ever read.
func TestLazySliceConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	cols := randomCols(rng, 8, 96)
	// 3 groups → SumDelta exercises occluders too
	sl := NewFromFactorRows(factorOf(cols, 96), 7, 77, 3)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			scratch := scratchFor(sl.Width())
			var d Delta
			for i := 0; i < 500; i++ {
				mask := rng.Uint64() & 0xff
				sum, _ := sumVec(sl, mask, scratch)
				want := naiveSum(cols, 96, mask).Slice(7, 77)
				if !sum.Equal(want) {
					t.Errorf("mask %#x: concurrent sliced sum mismatch", mask)
					return
				}
				bit := uint64(1) << uint(rng.Intn(8))
				if mask&bit == 0 {
					sl.SumDelta(mask, bit, &d)
				}
			}
		}(int64(g))
	}
	wg.Wait()
}
