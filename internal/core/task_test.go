package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"dbtf/internal/boolmat"
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

// TestEvalColumnMatchesNaive compares the delta-evaluation kernels (cached path,
// dense and sparse blocks, single- and multi-group caches) against the
// retained naive reference: every lane of every row must agree exactly for
// every stage, paired and single, across random tensors and ranks spanning
// the single-uint64-mask range. The naive path shares nothing between the
// lanes, so it also referees the cached path's "same key, evaluated once".
func TestEvalColumnMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ranks := []int{1, 2, 3, 7, 8, 13, 33, 64}
	for _, r := range ranks {
		for _, groupBits := range []int{2, 15} {
			i, j, k := rng.Intn(8)+3, rng.Intn(8)+3, rng.Intn(8)+3
			// Mix densities so some blocks pack dense rows and others
			// keep the sparse offset walk.
			density := []float64{0.01, 0.1, 0.4}[rng.Intn(3)]
			x := randomTensor(rng, i, j, k, density)
			a := boolmat.RandomFactor(rng, i, r, 0.3)
			mf := boolmat.RandomFactor(rng, k, r, 0.3)
			ms := boolmat.RandomFactor(rng, j, r, 0.3)

			opt := Options{Rank: r, Partitions: rng.Intn(4) + 1, GroupBits: groupBits}
			cached := newTestDecomposition(t, x, opt, 2)
			opt.NoCache = true
			naive := newTestDecomposition(t, x, opt, 2)

			for pi := range cached.ex.px[0].Parts {
				ct := buildTask(t, cached, pi, a, mf, ms)
				nt := buildTask(t, naive, pi, a, mf, ms)
				for c := 0; c < r; c++ {
					for span := 1; span <= min(lookahead, r-c); span++ {
						got, want := ct.eval(c, span), nt.eval(c, span)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("rank %d V=%d part %d col %d span %d: lanes %v, naive %v",
								r, groupBits, pi, c, span, got, want)
						}
					}
				}
			}
		}
	}
}

// TestLanesAreTheColumnsTheyStandFor pins what each lane means, on both
// kernels: lane 0 is the one-column stage's answer for column c and never
// depends on the row's bit c; lane 1 (lane 2) is the one-column stage's
// answer for column c+1 once bit c is cleared (set); and a row none of
// whose blocks holds both bits in its PVM mask has lanes 1 and 2 equal.
func TestLanesAreTheColumnsTheyStandFor(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const rank = 6
	x := randomTensor(rng, 9, 8, 7, 0.25)
	for _, noCache := range []bool{false, true} {
		d := newTestDecomposition(t, x, Options{Rank: rank, Partitions: 2, GroupBits: 4, NoCache: noCache}, 2)
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
				pair := slices.Clone(ct.eval(c, 2))
				// The one-column stage is the oracle; it reads the same a.
				single := func(col int, bitC bool) []int32 {
					for r := 0; r < a.Rows(); r++ {
						a.Set(r, c, bitC)
					}
					return slices.Clone(ct.eval(col, 1))
				}
				withC0, withC1 := single(c, false), single(c, true)
				next0, next1 := single(c+1, false), single(c+1, true)
				for r := 0; r < a.Rows(); r++ {
					l := pair[3*r : 3*r+3]
					if l[0] != withC0[r] || l[0] != withC1[r] {
						t.Fatalf("noCache=%v col %d part %d row %d: lane 0 is %d, column %d alone gives %d with the bit clear and %d with it set",
							noCache, c, pi, r, l[0], c, withC0[r], withC1[r])
					}
					if l[1] != next0[r] || l[2] != next1[r] {
						t.Fatalf("noCache=%v col %d part %d row %d: lanes 1, 2 are %d, %d; column %d alone gives %d after a 0 and %d after a 1",
							noCache, c, pi, r, l[1], l[2], c+1, next0[r], next1[r])
					}
					if disjoint && l[1] != l[2] {
						t.Fatalf("noCache=%v col %d part %d row %d: no block holds both bits, yet lanes 1 and 2 differ: %d, %d",
							noCache, c, pi, r, l[1], l[2])
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
// tables over row ranges) as well as whole ones, and at an odd rank, so the
// sweep holds paired stages and the one-column tail.
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
