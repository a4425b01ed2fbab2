package core

import (
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"dbtf/internal/bitvec"
	"dbtf/internal/boolmat"
	"dbtf/internal/partition"
	"dbtf/internal/sumcache"
)

// buildTask installs (a, ms, mf) as the executor's A, B, C — the A-update's
// roles: a updated, mf indexing the PVM blocks, ms cached — and builds
// partition pi's column task for that update.
func buildTask(t *testing.T, d *decomposition, pi int, a, mf, ms *boolmat.FactorMatrix) *columnTask {
	t.Helper()
	if err := d.ex.setFactors(a, ms, mf); err != nil {
		t.Fatal(err)
	}
	ct, err := d.ex.build(0, pi)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// lanesOf evaluates ct's stage of span columns at column c and expands
// the rows' hits into the lanes, as the driver's local stage does.
func lanesOf(ct *columnTask, c, span int) []int32 {
	lanes := ct.eval(c, span)
	ct.split.expand(lanes)
	return lanes
}

// repeatedRows draws an n×rank factor whose rows are copies of k random
// masks: a factor under update whose rows fall into few groups.
func repeatedRows(rng *rand.Rand, n, rank, k int) *boolmat.FactorMatrix {
	masks := boolmat.RandomFactor(rng, k, rank, 0.4)
	a := boolmat.NewFactor(n, rank)
	for r := 0; r < n; r++ {
		a.SetRowMask(r, masks.RowMask(rng.Intn(k)))
	}
	return a
}

// refereeDelta is the per-row referee's e1 − e0 of row r in block b for
// adding bit to key: both candidate summations ORed from the single columns
// of the cached matrix ms, sliced to the block's rows, and both row errors
// evaluated in full.
func refereeDelta(ms *boolmat.FactorMatrix, b *partition.Block, r int, key, bit uint64) int32 {
	rowError := func(mask uint64) int64 {
		sum, pop := make([]uint64, entryWords(b.Width())), 0
		for m := mask; m != 0; m &= m - 1 {
			col := ms.Column(bits.TrailingZeros64(m)).Slice(b.InnerLo, b.InnerLo+b.Width())
			pop = bitvec.OrCountWords(sum, sum, col.Words())
		}
		return b.RowError(r, sum, pop)
	}
	return int32(rowError(key|bit) - rowError(key))
}

// refereeLanes is the stage of columns [c, c+span) of task t, whose cached
// matrix is ms, as the per-row referee evaluates it: row by row and lane by
// lane over every block the stage reads, with nothing shared between them
// and no table consulted. Lane l of column c+j has the row's bits c …
// c+j−1 set as its outcome index says (see laneCount) and bit c+j clear.
func refereeLanes(t *columnTask, ms *boolmat.FactorMatrix, c, span int) []int32 {
	lanes := laneCount(span)
	deltas := make([]int32, t.a.Rows()*lanes)
	for bi := range t.part.Blocks {
		b := &t.part.Blocks[bi]
		kMask := t.mf.RowMask(b.PVM)
		for r := 0; r < t.a.Rows(); r++ {
			for l := 0; l < lanes; l++ {
				j := bits.Len(uint(l+1)) - 1
				o, bit := l+1-1<<uint(j), uint64(1)<<uint(c+j)
				if kMask&bit == 0 {
					continue
				}
				key := t.a.RowMask(r) &^ (bit<<1 - 1<<uint(c))
				for i := 0; i < j; i++ {
					if o>>uint(j-1-i)&1 != 0 {
						key |= 1 << uint(c+i)
					}
				}
				deltas[r*lanes+l] += refereeDelta(ms, b, r, key&kMask, bit)
			}
		}
	}
	return deltas
}

// TestEvalMatchesRowReferee holds the grouped evaluation to the per-row
// referee, which groups nothing and reads no table, under every table
// layout: V = 1 (single columns: no summation of two or more cached), 2, 3
// and 15, over dense and sparse blocks and ranks spanning the
// single-uint64 mask, every lane of every row of every stage, paired and
// single. The factors under update repeat a few masks, so that groups hold
// many rows and a block's groups share keys, or are random, so that most
// groups are one row.
func TestEvalMatchesRowReferee(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, rank := range []int{1, 2, 3, 7, 8, 13, 16, 33, 40, 64} {
		for _, groupBits := range []int{1, 2, 3, 15} {
			i, j, k := rng.Intn(10)+6, rng.Intn(8)+3, rng.Intn(8)+3
			x := randomTensor(rng, i, j, k, []float64{0.02, 0.1, 0.4}[rng.Intn(3)])
			mf, ms := boolmat.RandomFactor(rng, k, rank, 0.3), boolmat.RandomFactor(rng, j, rank, 0.3)
			d := newTestDecomposition(t, x, Options{Rank: rank, Partitions: rng.Intn(4) + 1, GroupBits: groupBits}, 2)
			for _, a := range []*boolmat.FactorMatrix{repeatedRows(rng, i, rank, 3), boolmat.RandomFactor(rng, i, rank, 0.3)} {
				for pi := range d.ex.px[0].Parts {
					ct := buildTask(t, d, pi, a, mf, ms)
					for c := 0; c < rank; c++ {
						for span := 1; span <= min(lookahead, rank-c); span++ {
							if got, want := lanesOf(ct, c, span), refereeLanes(ct, ms, c, span); !slices.Equal(got, want) {
								t.Fatalf("rank %d V=%d part %d col %d span %d: lanes %v, referee %v", rank, groupBits, pi, c, span, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestEvalLooksUpOncePerGroupKey counts the delta regions a stage looks up:
// at most one per group, block and lane — a block's groups that agree on
// its PVM mask share one — so on a factor whose rows repeat three masks,
// fewer than one per row and block. And it pins the region sizes the reply
// sends: one per lookup, less the Full blocks' lookups that repeat one the
// reply has sent (at most one memoized per row), which the decode reads to
// the last bit. The PVM factor is random over two partitions, and repeats
// three masks over three partitions, so that Full blocks repeat lookups.
func TestEvalLooksUpOncePerGroupKey(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	const rank = 6
	x := randomTensor(rng, 24, 10, 8, 0.2)
	a := repeatedRows(rng, 24, rank, 3)
	mf, ms := boolmat.RandomFactor(rng, 8, rank, 0.5), boolmat.RandomFactor(rng, 10, rank, 0.4)
	inputs := []struct {
		mf         *boolmat.FactorMatrix
		partitions int
	}{{mf, 2}, {repeatedRows(rng, 8, rank, 3), 3}}
	repeats := 0
	for in, input := range inputs {
		for _, v := range []int{0, 1} {
			d := newTestDecomposition(t, x, Options{Rank: rank, Partitions: input.partitions, GroupBits: v}, 2)
			for pi := range d.ex.px[0].Parts {
				ct := buildTask(t, d, pi, a, input.mf, ms)
				ct.split.keep = true
				blocks := len(ct.part.Blocks)
				for c := 0; c < rank; c += lookahead {
					before := ct.lookups
					hits := slices.Clone(ct.eval(c, lookahead))
					s, lookups := ct.split, ct.lookups-before
					if lookups > s.groups.n*blocks*s.lanes || lookups >= a.Rows()*blocks {
						t.Errorf("input %d V=%d part %d col %d: %d lookups for %d groups of %d rows, %d blocks and %d lanes",
							in, v, pi, c, lookups, s.groups.n, a.Rows(), blocks, s.lanes)
					}
					type lookup struct {
						mask uint64
						j    int
					}
					memo, want := map[lookup]bool{}, 0
					for _, l := range logWalk(ct, c, lookahead) {
						switch key := (lookup{l.mask, l.j}); {
						case l.full && memo[key]:
							repeats++
						case l.full && len(memo) < a.Rows():
							memo[key] = true
							want++
						default:
							want++
						}
					}
					if len(s.sizes) != want || want == 0 {
						t.Errorf("input %d V=%d part %d col %d: the reply sends %d region sizes for %d lookups, want %d",
							in, v, pi, c, len(s.sizes), lookups, want)
					}
					payload := appendReply(nil, s, hits)
					if err := decodeReply(payload, s, a, input.mf, ct.part.Blocks, c, lookahead, make([]int32, len(hits))); err != nil {
						t.Errorf("input %d V=%d part %d col %d: %v", in, v, pi, c, err)
					}
				}
			}
		}
	}
	if repeats == 0 {
		t.Error("no Full block repeated a lookup: the memo went untested")
	}
}

// TestLanesAreTheColumnsTheyStandFor pins what each lane means, at V = 4
// and V = 1: lane 0 is the one-column stage's answer for column c and never
// depends on the row's bit c; lane 1 (lane 2) is the one-column stage's
// answer for column c+1 once bit c is cleared (set); and a row none of
// whose blocks holds both bits in its PVM mask has lanes 1 and 2 equal.
func TestLanesAreTheColumnsTheyStandFor(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const rank = 6
	x := randomTensor(rng, 9, 8, 7, 0.25)
	for _, v := range []int{4, 1} {
		d := newTestDecomposition(t, x, Options{Rank: rank, Partitions: 2, GroupBits: v}, 2)
		for c := 0; c+1 < rank; c++ {
			a := boolmat.RandomFactor(rng, 9, rank, 0.4)
			mf := boolmat.RandomFactor(rng, 7, rank, 0.5)
			ms := boolmat.RandomFactor(rng, 8, rank, 0.4)
			// Half the columns get a PVM factor in which no row holds both
			// bits: the two outcomes of bit c then reach no block of c+1.
			disjoint := c%2 == 1
			if disjoint {
				for r := 0; r < mf.Rows(); r++ {
					mf.Set(r, c+1, mf.Get(r, c+1) && !mf.Get(r, c))
				}
			}
			for pi := range d.ex.px[0].Parts {
				ct := buildTask(t, d, pi, a, mf, ms)
				pair := slices.Clone(lanesOf(ct, c, 2))
				// The one-column stage is the oracle; it reads the same a.
				single := func(col int, bitC bool) []int32 {
					for r := 0; r < a.Rows(); r++ {
						a.Set(r, c, bitC)
					}
					return slices.Clone(lanesOf(ct, col, 1))
				}
				withC0, withC1 := single(c, false), single(c, true)
				next0, next1 := single(c+1, false), single(c+1, true)
				for r := 0; r < a.Rows(); r++ {
					l := pair[3*r : 3*r+3]
					if l[0] != withC0[r] || l[0] != withC1[r] {
						t.Fatalf("V=%d col %d part %d row %d: lane 0 is %d, column %d alone gives %d with the bit clear and %d with it set",
							v, c, pi, r, l[0], c, withC0[r], withC1[r])
					}
					if l[1] != next0[r] || l[2] != next1[r] {
						t.Fatalf("V=%d col %d part %d row %d: lanes 1, 2 are %d, %d; column %d alone gives %d after a 0 and %d after a 1",
							v, c, pi, r, l[1], l[2], c+1, next0[r], next1[r])
					}
					if disjoint && l[1] != l[2] {
						t.Fatalf("V=%d col %d part %d row %d: no block holds both bits, yet lanes 1 and 2 differ: %d, %d",
							v, c, pi, r, l[1], l[2])
					}
				}
			}
		}
	}
}

// TestEvalColumnZeroAlloc pins the stage kernel's allocation contract: a built
// column task evaluates stages without allocating, from the first sweep on
// — across both a single-group and a multi-group (occluded delta)
// configuration, over partitions that cut PVM products (partial blocks,
// tables over row ranges) as well as whole ones, and at rank 7, so the
// sweep holds three-column stages of seven lanes and the one-column tail.
func TestEvalColumnZeroAlloc(t *testing.T) {
	const rank = 7
	rng := rand.New(rand.NewSource(22))
	x := randomTensor(rng, 16, 12, 10, 0.2)
	a := boolmat.RandomFactor(rng, 16, rank, 0.4)
	mf := boolmat.RandomFactor(rng, 10, rank, 0.4)
	ms := boolmat.RandomFactor(rng, 12, rank, 0.4)
	// As testing.AllocsPerRun counts, without its warm-up call.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, groupBits := range []int{3, 15} {
		d := newTestDecomposition(t, x, Options{Rank: rank, Partitions: 3, GroupBits: groupBits}, 2)
		for pi := range d.ex.px[0].Parts {
			buildTask(t, d, pi, a, mf, ms)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for sweep := 0; sweep < 2; sweep++ {
				for c := 0; c < rank; c += d.ex.stageSpan(c) {
					// eval is the call the driver's local stage closure makes:
					// the contract covers the executor's address checks and the
					// by-reference return, not just the kernel under them.
					if _, err := d.ex.eval(0, pi, c); err != nil {
						t.Fatal(err)
					}
				}
			}
			runtime.ReadMemStats(&after)
			if allocs := after.Mallocs - before.Mallocs; allocs != 0 {
				t.Fatalf("V=%d part %d: the first two sweeps allocated %d times, want 0", groupBits, pi, allocs)
			}
		}
	}
}

// TestRegistrySharesCaches checks the per-machine cache accounting: tasks
// on one machine share one table per caching matrix and row range, a write
// that changes the matrix invalidates them (one that does not, does not) and
// hands their arrays back to the pool, and distinct machines build their own.
func TestRegistrySharesCaches(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ms := boolmat.RandomFactor(rng, 12, 5, 0.4)
	regs := newExecutor(runConfig{}, [3]int{}, 2, nil, lookahead).reg

	full, part := regs[0].cacheFor(ms, 0, 12, 15), regs[0].cacheFor(ms, 2, 9, 15)
	if full == part || full.Width() != 12 || part.Width() != 7 {
		t.Fatalf("tables over rows [0,12) and [2,9) have widths %d and %d", full.Width(), part.Width())
	}
	if regs[0].cacheFor(ms, 0, 12, 15) != full || regs[0].cacheFor(ms, 2, 9, 15) != part {
		t.Fatal("same machine, same matrix version, same rows: table not shared")
	}
	if regs[1].cacheFor(ms, 0, 12, 15) == full || regs[1].cacheFor(ms, 2, 9, 15) == part {
		t.Fatal("distinct machines must not share tables")
	}

	// A commit that rewrites a column without flipping an entry (every
	// converged column, every iteration) must not cost the machine its tables.
	for r := 0; r < ms.Rows(); r++ {
		ms.Set(r, 0, ms.Get(r, 0))
		ms.SetRowMask(r, ms.RowMask(r))
	}
	if regs[0].cacheFor(ms, 0, 12, 15) != full || regs[0].cacheFor(ms, 2, 9, 15) != part {
		t.Fatal("writing the values already stored evicted a table")
	}

	ms.Set(0, 0, !ms.Get(0, 0)) // a real flip
	if regs[0].cacheFor(ms, 2, 9, 15) == part {
		t.Fatal("stale table served after the matrix changed")
	}
	if len(regs[0].entries) != 1 {
		t.Fatalf("stale entries not evicted: %d live, want 1", len(regs[0].entries))
	}
	// Both tables of the stale version went back to the pool with it: a
	// released table is poisoned, and reading it faults.
	for name, stale := range map[string]*sumcache.Cache{"full": full, "row-range": part} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("evicted %s table was not released", name)
				}
			}()
			stale.Sum(1, nil)
		}()
	}
}
