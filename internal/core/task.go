package core

import (
	"dbtf/internal/boolmat"
	"dbtf/internal/partition"
	"dbtf/internal/sumcache"
)

// lookahead is how many columns one eval stage decides. Rows are
// independent, and column c+1 depends on column c only through the row's
// own bit c, so a partition can answer for column c+1 under both outcomes
// of column c before the driver has decided it: one synchronisation round
// commits two columns. It stays 2 because the lanes double with every
// further column: at 3, seven lanes a row decide three columns where three
// one-column stages collect six values, under any per-lane codec.
const lookahead = 2

// laneCount returns the error differences a stage of span columns carries
// per row: one for the first column, then one per outcome of the columns
// before it — lane 0 is column c; lanes 1 and 2 are column c+1 with the
// row's bit c ending 0 and 1.
func laneCount(span int) int { return 1<<uint(span) - 1 }

// columnTask is one partition's reusable state for the column-update
// stages of its mode's factor updates (Algorithm 4): block summers,
// scratch, and the per-row delta accumulator. It lives for the run, as a
// mapPartitions task keeps its partition's state, and executor.build
// refills it for every update. Everything is allocated by the time the
// task is built, before the column loop starts — eval itself performs zero
// allocations. A task runs on one goroutine, as a Spark task does.
type columnTask struct {
	part *partition.Partition
	// epoch is the executor epoch the task was last built in; it serves
	// evals only while that is the executor's.
	epoch uint64
	// a is the factor matrix under update (row masks feed the cache
	// keys); mf indexes the PVM blocks.
	a, mf   *boolmat.FactorMatrix
	summers []summer
	// deltas[r·lanes+l] accumulates Σ_blocks (e1 − e0) for row r in lane l
	// of the stage last evaluated; sized for the widest stage. int32 holds
	// it: a block's |e1 − e0| is at most its width, the sum at most the
	// partition's, and tensor.matricize refuses an unfolding whose columns
	// overflow int32.
	deltas  []int32
	noCache bool
	// delta is the cached path's view of one row's flipped region.
	delta sumcache.Delta
	// scratch[bi] backs naiveSummer evaluation in the NoCache ablation;
	// nil under the cached delta path, which materializes no summations.
	scratch [][]uint64
}

// newColumnTask makes partition part's column task around its accumulator,
// with what depends on the partition alone; executor.build fills in the
// rest.
func newColumnTask(part *partition.Partition, deltas []int32, noCache bool) *columnTask {
	t := &columnTask{
		part:    part,
		summers: make([]summer, 0, len(part.Blocks)),
		deltas:  deltas,
		noCache: noCache,
	}
	if noCache {
		t.scratch = make([][]uint64, len(part.Blocks))
		for bi, b := range part.Blocks {
			t.scratch[bi] = make([]uint64, entryWords(b.Width()))
		}
	}
	return t
}

// eval fills and returns the lanes of the stage deciding columns
// [c, c+span), span 1 or 2: every row's error difference e1 − e0 — the
// change in the partition's reconstruction error if the row's entry in the
// column were 1 instead of 0 — for column c, and for column c+1 under both
// outcomes of the row's bit c. A block contributes to a column only if its
// PVM row mask holds the column's bit; the two outcomes of bit c reach
// column c+1 only through blocks whose mask holds both bits, and every
// other block's difference is evaluated once and added to both lanes.
// Rows whose delta region is empty are skipped (SumDelta decides that from
// two cached popcounts, without touching any vector).
//
//dbtf:noalloc
func (t *columnTask) eval(c, span int) []int32 {
	rows, lanes := t.a.Rows(), laneCount(span)
	deltas := t.deltas[:rows*lanes]
	clear(deltas)
	bit := uint64(1) << uint(c)
	var next uint64
	if span > 1 {
		next = bit << 1
	}
	for bi, b := range t.part.Blocks {
		kMask := t.mf.RowMask(b.PVM)
		if kMask&(bit|next) == 0 {
			continue
		}
		if t.noCache {
			t.evalBlockNaive(bi, b, bit, next, kMask, deltas, lanes)
			continue
		}
		cache := t.summers[bi].(*sumcache.Cache)
		first, second := kMask&bit != 0, kMask&next != 0
		for r := 0; r < rows; r++ {
			row, out := t.a.RowMask(r), deltas[r*lanes:][:lanes]
			if first {
				out[0] += t.rowDelta(cache, b, r, (row&^bit)&kMask, bit)
			}
			if second {
				key := (row &^ (bit | next)) & kMask
				d := t.rowDelta(cache, b, r, key, next)
				out[1] += d
				if first {
					d = t.rowDelta(cache, b, r, key|bit, next)
				}
				out[2] += d
			}
		}
	}
	return deltas
}

// rowDelta is e1 − e0 of row r in block b for adding bit to key.
//
//dbtf:noalloc
func (t *columnTask) rowDelta(cache *sumcache.Cache, b *partition.Block, r int, key, bit uint64) int32 {
	cache.SumDelta(key, bit, &t.delta)
	if t.delta.Empty() {
		return 0
	}
	return int32(b.DeltaError(r, &t.delta))
}

// evalBlockNaive is the uncached reference path: both candidate
// summations are materialized from the factor columns and both errors
// evaluated in full, lane by lane with nothing shared between them. It is
// retained as the ablation of Section III-C and as the referee the
// differential tests compare the delta kernels against.
//
//dbtf:noalloc
func (t *columnTask) evalBlockNaive(bi int, b *partition.Block, bit, next, kMask uint64, deltas []int32, lanes int) {
	for r := 0; r < t.a.Rows(); r++ {
		row, out := t.a.RowMask(r), deltas[r*lanes:][:lanes]
		if kMask&bit != 0 {
			out[0] += t.naiveDelta(bi, b, r, (row&^bit)&kMask, bit)
		}
		if kMask&next != 0 {
			out[1] += t.naiveDelta(bi, b, r, (row&^(bit|next))&kMask, next)
			out[2] += t.naiveDelta(bi, b, r, (row&^next|bit)&kMask, next)
		}
	}
}

// naiveDelta is e1 − e0 of row r in block bi for adding bit to key, from
// two full row errors.
//
//dbtf:noalloc
func (t *columnTask) naiveDelta(bi int, b *partition.Block, r int, key, bit uint64) int32 {
	sm, scratch := t.summers[bi], t.scratch[bi]
	sum0, pop0 := sm.Sum(key, scratch)
	e0 := b.RowError(r, sum0, pop0)
	sum1, pop1 := sm.Sum(key|bit, scratch)
	return int32(b.RowError(r, sum1, pop1) - e0)
}
