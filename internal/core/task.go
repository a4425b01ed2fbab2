package core

import (
	"math/bits"

	"dbtf/internal/bitvec"
	"dbtf/internal/boolmat"
	"dbtf/internal/partition"
	"dbtf/internal/sumcache"
)

// lookahead is how many columns one eval stage decides. Rows are
// independent, and a later column of the stage depends on the earlier ones
// only through the row's own bits, so a partition can answer for column
// c+j under every outcome of columns c … c+j−1 before the driver has
// decided them: one synchronisation round commits lookahead columns, and a
// row's lanes double with every column added. It is 3 because the reply
// codes a lane as its difference from the lane whose outcomes differ from
// its own in the last earlier bit (laneRef) — zero unless a block's PVM
// mask holds both bits, and an order-0 Exp-Golomb zero is one bit — so on
// the four benchmark workloads the seven lanes of three columns cost 1–26 %
// more bytes than the three of two, and a run collects fewer bytes than
// span 2 did in uvarints, in a third fewer rounds. At 4 the fifteen lanes
// cost 2–33 % more bytes than 3 does.
const lookahead = 3

// laneCount returns the error differences a stage of span columns carries
// per row, in heap order: lane 0 is column c; lanes 2^j − 1 … 2^(j+1) − 2
// are column c+j, the outcome index o = lane − (2^j − 1) giving the row's
// bits c … c+j−1 as the driver commits them, bit c being o's top bit —
// lanes 1 and 2 are column c+1 after a 0 and a 1 in column c.
func laneCount(span int) int { return 1<<uint(span) - 1 }

// laneSet is a set of a stage's lanes, lane l being bit l.
type laneSet uint64

// laneSets[j][held][set] is the lanes of column c+j whose outcomes agree
// with set on held, both masks of the stage's bits c … c+j−1 (bit i for
// column c+i): the lanes one pass of a block holding the bits held adds
// to. Built once, for every column of the widest stage.
var laneSets = func() (sets [lookahead][1 << (lookahead - 1)][1 << (lookahead - 1)]laneSet) {
	for j := range sets {
		for held := 0; held < 1<<j; held++ {
			for set := 0; set < 1<<j; set++ {
				for o := 0; o < 1<<j; o++ {
					// Bit i of the row's mask is bit j−1−i of o.
					if outcome := int(bits.Reverse64(uint64(o)) >> (64 - j)); j == 0 || outcome&held == set&held {
						sets[j][held][set] |= 1 << uint(1<<j-1+o)
					}
				}
			}
		}
	}
	return sets
}()

// columnTask is one partition's reusable state for the column-update
// stages of its mode's factor updates (Algorithm 4): block tables and the
// per-row delta accumulator. It lives for the run, as a mapPartitions task
// keeps its partition's state, and executor.build refills it for every
// update that follows a change to its cached matrix. Everything is
// allocated by the time the task is built, before the column loop starts —
// eval itself performs zero allocations. A task runs on one goroutine, as
// a Spark task does.
type columnTask struct {
	part *partition.Partition
	// epoch is the executor epoch the task was last built in, and version
	// the version of the cached matrix its tables were built over; it
	// serves evals only while both are current (see executor.eval).
	epoch, version uint64
	// a is the factor matrix under update (row masks feed the cache
	// keys); mf indexes the PVM blocks.
	a, mf *boolmat.FactorMatrix
	// tables[bi] is block bi's row-summation cache.
	tables []*sumcache.Cache
	// deltas[r·lanes+l] is Σ_blocks (e1 − e0) for row r in lane l of the
	// stage last evaluated; sized for the widest stage. int32 holds it: a
	// block's |e1 − e0| is at most its width, the sum at most the
	// partition's, and partition.FromTensor refuses an unfolding whose columns
	// overflow int32. eval accumulates the rows' hits in deltas and the
	// groups' bases in split; the driver expands the two into the lanes
	// (split.expand), a worker's reply ships the hits.
	deltas []int32
	split  *split
	// delta is one group's flipped region.
	delta sumcache.Delta
	// lookups counts the SumDelta calls eval has made, one per key a
	// block's groups form in a lane, at most one per (group, block, lane);
	// hits the Block.Hits calls, one per member row of a non-empty region.
	lookups, hits int
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

// eval evaluates the stage deciding columns [c, c+span): every row's
// error difference e1 − e0 — the change in the partition's reconstruction
// error if the row's entry in the column were 1 instead of 0 — for column
// c, and for each later column c+j under every outcome of the row's bits
// c … c+j−1 (see laneCount). It returns the rows' hits, rows × lanes, and
// leaves in the split the groups' bases, which split.expand turns the hits
// into the lanes with, and on a worker the region sizes its reply sends.
//
// The rows are grouped first (split.rowGroups), and the walk (split.walk)
// looks each block's delta regions up once per key the groups form in it
// and assignment; only a row's overlap with a region is counted per row.
// The reply is priced on the way (see split.price).
func (t *columnTask) eval(c, span int) []int32 {
	s := t.split
	s.rowGroups(t.a, t.mf, t.part.Blocks, c, span)
	deltas := t.deltas[:t.a.Rows()*s.lanes]
	clear(deltas)
	s.walk(t, t.part.Blocks, t.mf, c, span)
	s.price(deltas)
	return deltas
}

// regionSize is the column task's region source: it looks block bi's
// delta region up in the block's table and materializes it, sends its size
// (split.send), and adds each member row of the block key's groups its
// overlap with the region to its hits. A region SumDelta finds empty from
// two cached popcounts skips its rows without touching any vector.
func (t *columnTask) regionSize(bi int, b *partition.Block, mask, bit uint64, j, k int, lanes laneSet) (int, bool) {
	s := t.split
	t.lookups++
	size, region := 0, s.region[:entryWords(b.Width())]
	if t.tables[bi].SumDelta(mask, bit, &t.delta); !t.delta.Empty() {
		size = bitvec.GainWords(region, t.delta.W1, t.delta.W0, t.delta.Occ)
	}
	s.send(b, mask, j, size)
	if size != 0 {
		for _, g := range s.blockKeys.members(k) {
			rows := s.groups.members(int(g))
			t.hits += len(rows)
			for _, r := range rows {
				s.addCount(t.deltas, int(r), lanes, b.Hits(int(r), region))
			}
		}
	}
	return size, true
}
