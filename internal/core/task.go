package core

import (
	"dbtf/internal/bitvec"
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
// stages of its mode's factor updates (Algorithm 4): block tables and the
// per-row delta accumulator. It lives for the run, as a mapPartitions task
// keeps its partition's state, and executor.build refills it for every
// update. Everything is allocated by the time the task is built, before the
// column loop starts — eval itself performs zero allocations. A task runs
// on one goroutine, as a Spark task does.
type columnTask struct {
	part *partition.Partition
	// epoch is the executor epoch the task was last built in; it serves
	// evals only while that is the executor's.
	epoch uint64
	// a is the factor matrix under update (row masks feed the cache
	// keys); mf indexes the PVM blocks.
	a, mf *boolmat.FactorMatrix
	// tables[bi] is block bi's row-summation cache.
	tables []*sumcache.Cache
	// deltas[r·lanes+l] is Σ_blocks (e1 − e0) for row r in lane l of the
	// stage last evaluated; sized for the widest stage. int32 holds it: a
	// block's |e1 − e0| is at most its width, the sum at most the
	// partition's, and tensor.matricize refuses an unfolding whose columns
	// overflow int32. eval accumulates the rows' hits in deltas and the
	// groups' bases in split, then expands the two into the lanes.
	deltas []int32
	split  *split
	// delta is one group's flipped region.
	delta sumcache.Delta
	// lookups counts the SumDelta calls eval has made, one per key a
	// block's groups form in a lane, at most one per (group, block, lane).
	lookups int
}

// newColumnTask makes partition part's column task around its accumulator
// and split, with what depends on the partition alone; executor.build
// fills in the rest.
func newColumnTask(part *partition.Partition, deltas []int32, s *split) *columnTask {
	return &columnTask{
		part:   part,
		tables: make([]*sumcache.Cache, 0, len(part.Blocks)),
		deltas: deltas,
		split:  s,
	}
}

// eval fills and returns the lanes of the stage deciding columns
// [c, c+span), span 1 or 2: every row's error difference e1 − e0 — the
// change in the partition's reconstruction error if the row's entry in the
// column were 1 instead of 0 — for column c, and for column c+1 under both
// outcomes of the row's bit c. A block contributes to a column only if its
// PVM row mask holds the column's bit; the two outcomes of bit c reach
// column c+1 only through blocks whose mask holds both bits, and every
// other block's difference is evaluated once and added to both lanes.
//
// The rows are grouped first (split.rowGroups), and a block's delta region
// is looked up once per key the groups form in it (see pass); only a row's
// overlap with the region is counted per row.
//
//dbtf:noalloc
func (t *columnTask) eval(c, span int) []int32 {
	s := t.split
	bit, next := s.rowGroups(t.a, t.mf, t.part.Blocks, c, span)
	deltas := t.deltas[:t.a.Rows()*s.lanes]
	clear(deltas)
	clear(s.base[:s.groups.n*s.lanes])
	for bi, b := range t.part.Blocks {
		kMask := t.mf.RowMask(b.PVM)
		first, second := kMask&bit != 0, kMask&next != 0
		if first {
			t.pass(bi, b, kMask, 0, bit, 0, 1)
		}
		if second {
			if kMask &^= next; first {
				t.pass(bi, b, kMask, 0, next, 1, 1)
				t.pass(bi, b, kMask, bit, next, 2, 1)
			} else {
				t.pass(bi, b, kMask, 0, next, 1, 2)
			}
		}
	}
	s.expand(deltas)
	return deltas
}

// pass adds block b's part of lanes [l, l+n): the delta region of adding
// bit to a group's key masked by kMask, with set added. Groups whose keys
// agree on kMask share the region, so it is looked up once per such key
// (split.bucketBlockKeys) and materialized; its size goes to each of the
// groups' bases, and each of their rows adds its overlap with it to its
// hits, which the lanes hold until eval expands them. A region SumDelta
// finds empty from two cached popcounts skips its rows without touching
// any vector.
//
//dbtf:noalloc
func (t *columnTask) pass(bi int, b *partition.Block, kMask, set, bit uint64, l, n int) {
	s := t.split
	s.bucketBlockKeys(kMask, set)
	cache := t.tables[bi]
	region := s.region[:entryWords(b.Width())]
	for k, key := range s.blockKeys.key[:s.blockKeys.n] {
		t.lookups++
		if cache.SumDelta(key, bit, &t.delta); t.delta.Empty() {
			continue
		}
		//dbtf:samewidth the region is cut to the block's width, as the cache slice's entries are
		gain := bitvec.GainWords(region, t.delta.W1, t.delta.W0, t.delta.Occ)
		if gain == 0 {
			continue
		}
		for _, g := range s.blockKeys.members(k) {
			t.addCount(s.base, int(g), l, n, gain)
			for _, r := range s.groups.members(int(g)) {
				t.addCount(t.deltas, int(r), l, n, b.Hits(int(r), region))
			}
		}
	}
}

// addCount adds v to lanes [l, l+n) of entry i of counts, laid out as the
// stage's lanes to an entry: a group's bases or a row's hits.
func (t *columnTask) addCount(counts []int32, i, l, n, v int) {
	if v != 0 {
		c := counts[i*t.split.lanes+l:][:n]
		for j := range c {
			c[j] += int32(v)
		}
	}
}
