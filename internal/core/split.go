package core

import (
	"math/bits"

	"dbtf/internal/boolmat"
	"dbtf/internal/partition"
	"dbtf/internal/slab"
)

// split is one partition's lanes of an eval stage in the form the delta
// identity gives them: e1 − e0 = |D| − 2·|x_row ∧ D| in every block, where
// D depends on the row only through its group key (see rowGroups). Summed
// over the blocks, lane l of row r is
//
//	base[group(r)][l] − 2·hits[r][l]
//
// The column task accumulates the bases here and the hits in its lanes,
// then expands the two into the lanes; the eval reply ships bases and hits
// instead of the lanes when that is smaller, and the driver, which groups
// the rows itself, expands them back. A partition evaluates one stage at a
// time, whatever its mode, so one split serves all three updates; it lives
// for the run, sized for the widest stage of the tallest factor.
type split struct {
	// lanes is the stage's lanes per row.
	lanes int
	// groups buckets the rows by group key.
	groups buckets
	// base[g·lanes+l] is Σ_blocks |D| of group g in lane l.
	base []int32
	// wide[g·lookahead+j] is what group g's base adds to every lane of
	// column c+j: a block holding none of the stage's bits before c+j adds
	// its |D| to all of them, and eval counts it once until expand.
	wide []int32
	// blockKeys buckets the groups by their delta key in the block and
	// lane being evaluated; keys holds those keys, group by group.
	blockKeys buckets
	keys      []uint64
	// region holds the delta region being counted, in the block's words.
	region []uint64
	// hitRow holds one row's hits while a reply is encoded or decoded.
	hitRow []int32
	// words and arena back every slice above; they go back to the slab pool
	// with the executor's other run state.
	words []uint64
	arena []int32
}

// buckets groups items by a uint64 key: bucket k holds the items with key
// key[k], and buckets are numbered in the order of their first items.
type buckets struct {
	// n is the bucket count; of[i] is item i's bucket, and bucket k's
	// items, ascending, are items[start[k]:start[k+1]].
	n                int
	key              []uint64
	of, items, start []int32
	// slotKey and slotBucket are an open-addressing table from keys to
	// buckets, a power of two at least twice the items in size: slot i
	// holds key slotKey[i] of bucket slotBucket[i]−1, or nothing when
	// slotBucket[i] is 0. Bucketings that run one after the other share it.
	slotKey    []uint64
	slotBucket []int32
}

// init sizes the split for up to rows rows of lanes lanes, over blocks of
// up to width columns.
func (s *split) init(rows, lanes, width int) {
	slots, w := 1<<bits.Len(uint(2*rows-1)), entryWords(width)
	s.words, s.arena = slab.Uint64s(3*rows+slots+w), slab.Int32s(6*rows+2+rows*lanes+lanes+slots+rows*lookahead)
	words, arena := s.words, s.arena
	take := func(n int) []int32 {
		a := arena[:n:n]
		arena = arena[n:]
		return a
	}
	s.keys, s.region, words = words[:rows:rows], words[rows:rows+w:rows+w], words[rows+w:]
	for _, b := range []*buckets{&s.groups, &s.blockKeys} {
		b.key, words = words[:rows:rows], words[rows:]
		b.of, b.items, b.start = take(rows), take(rows), take(rows+1)
	}
	s.base, s.hitRow, s.wide = take(rows*lanes), take(lanes), take(rows*lookahead)
	slotKey, slotBucket := words, take(slots)
	s.groups.slotKey, s.groups.slotBucket = slotKey, slotBucket
	s.blockKeys.slotKey, s.blockKeys.slotBucket = slotKey, slotBucket
}

// release returns the split's buffers to the slab pool and poisons it.
func (s *split) release() {
	slab.PutUint64s(s.words)
	slab.PutInt32s(s.arena)
	*s = split{}
}

// rowGroups groups the rows of a, the factor under update, for the eval
// stage deciding columns [c, c+span) of a partition with the given blocks,
// whose PVM masks are mf's rows, and returns the stage's column bits. A
// row's key is its mask without bit c, narrowed to U, the OR of the PVM
// masks of the blocks the stage reads — those holding any of its bits.
// Every delta key a block forms for the row is its key masked by the
// block's PVM mask, a subset of U, with some of the stage's bits set, so
// rows with equal keys have equal deltas in every block and lane: equal
// bases.
//
// The column task groups before it evaluates; the driver groups the same
// way before it decodes a grouped reply, from A as it stands until the
// stage's commit and from the partition's blocks, so the groups are never
// sent.
//
//dbtf:noalloc
func (s *split) rowGroups(a, mf *boolmat.FactorMatrix, blocks []*partition.Block, c, span int) (stage uint64) {
	stage, s.lanes = (1<<uint(span)-1)<<uint(c), laneCount(span)
	var u uint64
	for _, b := range blocks {
		if k := mf.RowMask(b.PVM); k&stage != 0 {
			u |= k
		}
	}
	bit := uint64(1) << uint(c)
	keys := s.keys[:a.Rows()]
	for r := range keys {
		keys[r] = a.RowMask(r) &^ bit & u
	}
	s.groups.fill(keys)
	return stage
}

// bucketBlockKeys buckets the groups by their delta key in one block and
// column: the group key masked by kMask, the block's PVM mask less the
// stage's bits up to the column's. Groups whose keys differ only outside
// kMask share the key, and so the block's delta regions.
//
//dbtf:noalloc
func (s *split) bucketBlockKeys(kMask uint64) {
	keys := s.keys[:s.groups.n]
	for g, k := range s.groups.key[:s.groups.n] {
		keys[g] = k & kMask
	}
	s.blockKeys.fill(keys)
}

// fill buckets items 0…len(keys)−1 by their keys: one pass hashes every
// key to its bucket, counting the buckets' items, and a second places the
// items bucket by bucket.
//
//dbtf:noalloc
func (b *buckets) fill(keys []uint64) {
	size := 1 << bits.Len(uint(2*len(keys)-1))
	slotKey, slotBucket := b.slotKey[:size], b.slotBucket[:size]
	clear(slotBucket)
	wrap, shift := uint64(size-1), 64-bits.TrailingZeros(uint(size))
	b.n, b.start[0] = 0, 0
	for i, k := range keys {
		// Fibonacci hashing: the product's top bits pick the slot.
		j := k * 0x9e3779b97f4a7c15 >> shift
		for slotBucket[j] != 0 && slotKey[j] != k {
			j = (j + 1) & wrap
		}
		if slotBucket[j] == 0 {
			slotKey[j], b.key[b.n] = k, k
			b.n++
			slotBucket[j], b.start[b.n] = int32(b.n), 0
		}
		id := slotBucket[j] - 1
		b.of[i] = id
		b.start[id+1]++
	}
	start := b.start[:b.n+1]
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	// Placing item i advances its bucket's start to the next bucket's; one
	// shift restores them.
	for i, k := range b.of[:len(keys)] {
		b.items[start[k]] = int32(i)
		start[k]++
	}
	copy(start[1:], start[:b.n])
	start[0] = 0
}

// members returns bucket k's items, ascending.
func (b *buckets) members(k int) []int32 { return b.items[b.start[k]:b.start[k+1]] }

// groupBase returns group g's base lanes.
func (s *split) groupBase(g int) []int32 { return s.base[g*s.lanes:][:s.lanes] }

// expand turns deltas, rows × lanes of hits, into the lanes, each its
// group's base less twice the hits, once every base has its column-wide
// counts added to the lanes of their columns.
//
//dbtf:noalloc
func (s *split) expand(deltas []int32) {
	for g := 0; g < s.groups.n; g++ {
		base, wide := s.groupBase(g), s.wide[g*lookahead:]
		for j := 0; 1<<j <= len(base); j++ {
			for l := 1<<j - 1; l < 1<<(j+1)-1; l++ {
				base[l] += wide[j]
			}
		}
	}
	for r, g := range s.groups.of[:len(deltas)/s.lanes] {
		base, row := s.groupBase(int(g)), deltas[r*s.lanes:][:s.lanes]
		for l := range row {
			row[l] = base[l] - 2*row[l]
		}
	}
}

// hits fills s.hitRow with row r's hits as deltas implies them — its
// group's base less the lane, halved — and reports whether they are whole
// counts: whether the row's lanes are its group's base less twice some
// hits.
//
//dbtf:noalloc
func (s *split) hits(r int, deltas []int32) ([]int32, bool) {
	base, row, hits := s.groupBase(int(s.groups.of[r])), deltas[r*s.lanes:][:s.lanes], s.hitRow[:s.lanes]
	for l := range row {
		d := int64(base[l]) - int64(row[l])
		if base[l] < 0 || d < 0 || d&1 != 0 {
			return hits, false
		}
		hits[l] = int32(d / 2)
	}
	return hits, true
}
