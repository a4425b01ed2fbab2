package core

import (
	"dbtf/internal/boolmat"
	"dbtf/internal/partition"
	"dbtf/internal/sumcache"
)

// columnTask is one partition's reusable state for the column-update
// stages of one factor update (Algorithm 4): block summers, scratch, and
// the per-row delta accumulator. Everything is allocated when the task is
// built, before the column loop starts — evalColumn itself performs zero
// allocations. A task runs on one goroutine, as a Spark task does.
type columnTask struct {
	part *partition.Partition
	// a is the factor matrix under update (row masks feed the cache
	// keys); mf indexes the PVM blocks.
	a, mf   *boolmat.FactorMatrix
	summers []summer
	// deltas[r] accumulates Σ_blocks (e1 − e0) for row r.
	deltas  []int64
	noCache bool
	// delta is the cached path's view of one row's flipped region.
	delta sumcache.Delta
	// scratch[bi] backs naiveSummer evaluation in the NoCache ablation;
	// nil under the cached delta path, which materializes no summations.
	scratch [][]uint64
}

// buildColumnTask assembles a column task from pre-resolved summers; see
// executor.build.
func buildColumnTask(part *partition.Partition, a, mf *boolmat.FactorMatrix, summers []summer, noCache bool) *columnTask {
	t := &columnTask{
		part:    part,
		a:       a,
		mf:      mf,
		summers: summers,
		deltas:  make([]int64, a.Rows()),
		noCache: noCache,
	}
	if noCache {
		t.scratch = make([][]uint64, len(part.Blocks))
		for bi, b := range part.Blocks {
			t.scratch[bi] = make([]uint64, entryWords(b.Width()))
		}
	} else if len(summers) > 0 {
		// Every table group but the flipped bit's own can occlude.
		t.delta.Occ = make([][]uint64, 0, summers[0].(*sumcache.Cache).NumGroups()-1)
	}
	return t
}

// evalColumn fills deltas with every row's error difference e1 − e0 for
// column c: the change in the partition's reconstruction error if the
// row's entry in column c were 1 instead of 0. Blocks whose PVM row mask
// lacks bit c reconstruct identically under both candidates and are
// skipped; so are rows whose delta region is empty (SumDelta decides that
// from two cached popcounts, without touching any vector).
//
//dbtf:noalloc
func (t *columnTask) evalColumn(c int) {
	bit := uint64(1) << uint(c)
	clear(t.deltas)
	for bi, b := range t.part.Blocks {
		kMask := t.mf.RowMask(b.PVM)
		if kMask&bit == 0 {
			continue
		}
		if t.noCache {
			t.evalBlockNaive(bi, b, bit, kMask)
			continue
		}
		cache := t.summers[bi].(*sumcache.Cache)
		for r := range t.deltas {
			key0 := (t.a.RowMask(r) &^ bit) & kMask
			cache.SumDelta(key0, bit, &t.delta)
			if t.delta.Empty() {
				continue
			}
			t.deltas[r] += b.DeltaError(r, &t.delta)
		}
	}
}

// evalBlockNaive is the uncached reference path: both candidate
// summations are materialized from the factor columns and both errors
// evaluated in full. It is retained as the ablation of Section III-C and
// as the referee the differential tests compare the delta kernels
// against.
//
//dbtf:noalloc
func (t *columnTask) evalBlockNaive(bi int, b *partition.Block, bit, kMask uint64) {
	sm := t.summers[bi]
	scratch := t.scratch[bi]
	for r := range t.deltas {
		row := t.a.RowMask(r)
		key0 := (row &^ bit) & kMask
		key1 := key0 | bit
		sum0, pop0 := sm.Sum(key0, scratch)
		e0 := b.RowError(r, sum0, pop0)
		sum1, pop1 := sm.Sum(key1, scratch)
		e1 := b.RowError(r, sum1, pop1)
		t.deltas[r] += e1 - e0
	}
}
