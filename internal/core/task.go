package core

import (
	"dbtf/internal/boolmat"
	"dbtf/internal/cluster"
	"dbtf/internal/partition"
	"dbtf/internal/sumcache"
)

// shardState is one row range of a column task's evaluation: shard s owns
// rows [lo, hi) and writes only deltas[lo:hi] of the task's accumulator,
// plus its own Delta view and (in the NoCache ablation) its own scratch
// vectors. Shards therefore touch pairwise-disjoint mutable state, which
// is what makes a parallel evaluation bit-identical to a sequential one:
// each row's delta is computed by the same code over the same read-only
// inputs, and the "merge" is positional — every shard already writes its
// final location.
type shardState struct {
	lo, hi int
	delta  sumcache.Delta
	// scratch[bi] backs naiveSummer evaluation in the NoCache ablation;
	// nil under the cached delta path, which materializes no summations.
	scratch [][]uint64
}

// columnTask is one partition's reusable state for the column-update
// stages of one factor update (Algorithm 4): block summers, pooled
// scratch, and the per-row delta accumulator, pre-split into one shard
// per machine thread. Everything is allocated when the task is built,
// before the column loop starts — evalColumn itself performs zero
// allocations.
type columnTask struct {
	part *partition.Partition
	// a is the factor matrix under update (row masks feed the cache
	// keys); mf indexes the PVM blocks.
	a, mf   *boolmat.FactorMatrix
	summers []summer
	// deltas[r] accumulates Σ_blocks (e1 − e0) for row r.
	deltas  []int64
	noCache bool
	// pool is the owning machine's intra-task worker pool (nil means
	// sequential); shards split the rows pool.Threads() ways.
	pool   *cluster.Pool
	shards []shardState
	// col is the column under evaluation, staged by evalColumn for
	// runShard — the closure is built once so the eval loop allocates
	// nothing.
	col      int
	runShard func(shard int)
}

// buildColumnTask assembles a column task from pre-resolved summers; see
// executor.build. The pool only affects how many threads evaluate the rows,
// never the result, so executors of different widths build interchangeable
// tasks.
func buildColumnTask(part *partition.Partition, a, mf *boolmat.FactorMatrix, summers []summer, noCache bool, pool *cluster.Pool) *columnTask {
	t := &columnTask{
		part:    part,
		a:       a,
		mf:      mf,
		summers: summers,
		deltas:  make([]int64, a.Rows()),
		noCache: noCache,
		pool:    pool,
	}
	rows := a.Rows()
	n := pool.Threads()
	if n > rows {
		n = rows
	}
	if n < 1 {
		n = 1
	}
	t.shards = make([]shardState, n)
	for s := range t.shards {
		sh := &t.shards[s]
		sh.lo, sh.hi = rows*s/n, rows*(s+1)/n
		if t.noCache {
			sh.scratch = make([][]uint64, len(part.Blocks))
			for bi, b := range part.Blocks {
				sh.scratch[bi] = make([]uint64, entryWords(b.Width()))
			}
		} else if len(summers) > 0 {
			// Every table group but the flipped bit's own can occlude.
			sh.delta.Occ = make([][]uint64, 0, summers[0].(*sumcache.Cache).NumGroups()-1)
		}
	}
	t.runShard = func(s int) { t.evalRows(t.col, &t.shards[s]) }
	return t
}

// evalColumn fills deltas with every row's error difference e1 − e0 for
// column c: the change in the partition's reconstruction error if the
// row's entry in column c were 1 instead of 0. The row range is split
// across the machine pool's threads; shards write disjoint subranges of
// deltas (see shardState), so the parallel result is bit-identical to
// the sequential one.
//
//dbtf:noalloc
func (t *columnTask) evalColumn(c int) {
	if len(t.shards) == 1 {
		t.evalRows(c, &t.shards[0])
		return
	}
	t.col = c
	t.pool.Run(len(t.shards), t.runShard)
}

// evalRows evaluates one shard's rows [sh.lo, sh.hi) for column c.
// Blocks whose PVM row mask lacks bit c reconstruct identically under
// both candidates and are skipped; so are rows whose delta region is
// empty (SumDelta decides that from two cached popcounts, without
// touching any vector). All shared state read here — summers, factor
// row masks, block rows — is read-only during an eval stage.
//
//dbtf:noalloc
func (t *columnTask) evalRows(c int, sh *shardState) {
	bit := uint64(1) << uint(c)
	for r := sh.lo; r < sh.hi; r++ {
		t.deltas[r] = 0
	}
	for bi, b := range t.part.Blocks {
		kMask := t.mf.RowMask(b.PVM)
		if kMask&bit == 0 {
			continue
		}
		if t.noCache {
			t.evalBlockNaive(sh, bi, b, bit, kMask)
			continue
		}
		cache := t.summers[bi].(*sumcache.Cache)
		for r := sh.lo; r < sh.hi; r++ {
			key0 := (t.a.RowMask(r) &^ bit) & kMask
			cache.SumDelta(key0, bit, &sh.delta)
			if sh.delta.Empty() {
				continue
			}
			t.deltas[r] += b.DeltaError(r, &sh.delta)
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
func (t *columnTask) evalBlockNaive(sh *shardState, bi int, b *partition.Block, bit, kMask uint64) {
	sm := t.summers[bi]
	scratch := sh.scratch[bi]
	for r := sh.lo; r < sh.hi; r++ {
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
