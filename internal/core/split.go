package core

import (
	"math/bits"

	"dbtf/internal/bitvec"
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
// Only the hits depend on the tensor. The bases are sums of region sizes
// |D|, one per lookup of the stage's walk (see walk), which the factors and
// the blocks fix: the column task takes them from its tables and counts
// the hits in its lanes, and the eval reply ships the hits and the sizes,
// from which the driver, walking the same lookups over rows it groups
// itself, rebuilds the bases. Either side then expands the two into the
// lanes. A partition evaluates one stage at a time, whatever its mode, so
// one split serves all three updates; it lives for the run, sized for the
// widest stage of the tallest factor.
type split struct {
	// lanes is the stage's lanes per row, and rows its factor's rows.
	lanes, rows int
	// groups buckets the rows by group key.
	groups buckets
	// base[g·lanes+l] is Σ_blocks |D| of group g in lane l.
	base []int32
	// wide[g·lookahead+j] is what group g's base adds to every lane of
	// column c+j: a block holding none of the stage's bits before c+j adds
	// its |D| to all of them, and the walk counts it once until expand.
	wide []int32
	// blockKeys buckets the groups by their delta key in the block and
	// lane being evaluated; keys holds those keys, group by group.
	blockKeys buckets
	keys      []uint64
	// region holds the delta region being counted, in the block's words.
	region []uint64
	// sized tallies the region sizes the reply sends, as the walk produces
	// or reads them, and body is the reply as priced (price); while a
	// reply is decoded, body.orders are the orders it was read at.
	sized golombTally
	body  replyBody
	// memoKey, memoCol and memoSize are the reply's memo of Full-block
	// region sizes (see memo), open addressing over at least twice the
	// stage's rows: slot i holds the size of lookup mask memoKey[i] at
	// column memoCol[i]−1, or nothing when memoCol[i] is 0. memoN counts
	// the sizes it holds, at most the stage's rows.
	memoKey           []uint64
	memoCol, memoSize []int32
	memoN             int
	// keep marks a worker's split, which keeps in sizes the region sizes
	// its reply sends, in walk order (a decode keeps those it reads).
	keep  bool
	sizes []int32
	// br is the reply being decoded, which the driver's walk reads the
	// region sizes from.
	br bitvec.BitReader
	// words and arena back every slice above but sizes; they go back to
	// the slab pool with the executor's other run state.
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
	s.words, s.arena = slab.Uint64s(3*rows+2*slots+w), slab.Int32s(6*rows+2+rows*lanes+3*slots+rows*lookahead)
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
	s.base, s.wide = take(rows*lanes), take(rows*lookahead)
	s.memoKey, s.memoCol, s.memoSize, words = words[:slots], take(slots), take(slots), words[slots:]
	slotKey, slotBucket := words, take(slots)
	s.groups.slotKey, s.groups.slotBucket = slotKey, slotBucket
	s.blockKeys.slotKey, s.blockKeys.slotBucket = slotKey, slotBucket
}

// release returns the split's buffers to the slab pool and poisons it.
func (s *split) release() {
	slab.PutUint64s(s.words)
	slab.PutInt32s(s.arena)
	slab.PutInt32s(s.sizes)
	*s = split{}
}

// rowGroups groups the rows of a, the factor under update, for the eval
// stage deciding columns [c, c+span) of a partition with the given blocks,
// whose PVM masks are mf's rows. A row's key is its mask without bit c,
// narrowed to U, the OR of the PVM masks of the blocks the stage reads —
// those holding any of its bits. Every delta key a block forms for the row
// is its key masked by the block's PVM mask, a subset of U, with some of
// the stage's bits set, so rows with equal keys have equal deltas in every
// block and lane: equal bases.
//
// The column task groups before it evaluates; the driver groups the same
// way before it decodes the reply, from A as it stands until the stage's
// commit and from the partition's blocks, so the groups are never sent.
func (s *split) rowGroups(a, mf *boolmat.FactorMatrix, blocks []partition.Block, c, span int) {
	stage := uint64(1<<uint(span)-1) << uint(c)
	s.lanes, s.rows = laneCount(span), a.Rows()
	var u uint64
	for bi := range blocks {
		if k := mf.RowMask(blocks[bi].PVM); k&stage != 0 {
			u |= k
		}
	}
	bit := uint64(1) << uint(c)
	keys := s.keys[:a.Rows()]
	for r := range keys {
		keys[r] = a.RowMask(r) &^ bit & u
	}
	s.groups.fill(keys)
}

// regionSource is where a walk takes the stage's region sizes from: the
// column task's tables on the executor that evaluates the stage, the reply
// on the driver that decodes it.
type regionSource interface {
	// regionSize returns |D| of the region for adding bit to mask in block
	// bi, b, at column c+j — the region of the groups of the walk's k-th
	// block key, adding to their lanes in lanes — or false when there is
	// none to give.
	regionSize(bi int, b *partition.Block, mask, bit uint64, j, k int, lanes laneSet) (int, bool)
}

// walk makes the lookups of the stage deciding columns [c, c+span), on
// rows rowGroups has grouped, and adds each region's size src gives to the
// bases of the groups it serves. A block contributes to a column only if
// its PVM mask holds the column's bit, and the outcomes of the earlier bits
// reach it only through the bits its mask holds: it is looked up once per
// assignment of those, its region adding to every lane whose outcomes
// agree with the assignment — to the column-wide counts when the block
// holds none of the earlier bits. Groups whose keys agree on the block's
// mask share its regions (bucketBlockKeys), so each is looked up once per
// such key. The lookups come block by block, column by column, block key
// by block key and assignment by assignment, the order the reply's region
// sizes follow. It reports false as soon as src does.
func (s *split) walk(src regionSource, blocks []partition.Block, mf *boolmat.FactorMatrix, c, span int) bool {
	clear(s.base[:s.groups.n*s.lanes])
	clear(s.wide[:s.groups.n*lookahead])
	s.sized.reset()
	s.memoN = 0
	clear(s.memoCol[:s.memoSlots()])
	s.sizes = s.sizes[:0]
	stage := uint64(1<<uint(span)-1) << uint(c)
	for bi := range blocks {
		b := &blocks[bi]
		kMask := mf.RowMask(b.PVM)
		held := kMask & stage
		for j := 0; j < span; j++ {
			bit := uint64(1) << uint(c+j)
			if held&bit == 0 {
				continue
			}
			// Column c+j's key drops the stage's bits up to its own: the
			// earlier ones are set by the assignments, the later ones are
			// still the row's own.
			earlier := held & (bit - 1)
			s.bucketBlockKeys(kMask &^ (bit<<1 - 1<<uint(c)))
			for k, key := range s.blockKeys.key[:s.blockKeys.n] {
				for set := earlier; ; set = (set - 1) & earlier {
					lanes := laneSets[j][earlier>>uint(c)][set>>uint(c)]
					size, ok := src.regionSize(bi, b, key|set, bit, j, k, lanes)
					if !ok {
						return false
					}
					for _, g := range s.blockKeys.members(k) {
						if earlier == 0 {
							s.wide[int(g)*lookahead+j] += int32(size)
						} else {
							s.addCount(s.base, int(g), lanes, size)
						}
					}
					if set == 0 {
						break
					}
				}
			}
		}
	}
	return true
}

// addCount adds v to the lanes in set of entry i of counts, laid out as the
// stage's lanes to an entry: a group's bases or a row's hits.
func (s *split) addCount(counts []int32, i int, set laneSet, v int) {
	if v != 0 {
		c := counts[i*s.lanes:][:s.lanes]
		for m := set; m != 0; m &= m - 1 {
			c[bits.TrailingZeros64(uint64(m))] += int32(v)
		}
	}
}

// memoSlots returns the size of the memo's table for the stage's rows.
func (s *split) memoSlots() int { return 1 << bits.Len(uint(2*s.rows-1)) }

// memo finds the memo slot of block b's lookup of mask at column c+j, and
// reports whether the reply has sent that region's size already. A Full
// block's region spans its whole PVM product, so its size depends on the
// lookup alone: a reply sends it once, the first time the lookup comes,
// and both sides take it from the memo after that. Other blocks' sizes,
// and the Full blocks' once the memo holds one per row, are always sent;
// their slot is −1.
func (s *split) memo(b *partition.Block, mask uint64, j int) (slot int, sent bool) {
	if b.Type != partition.Full {
		return -1, false
	}
	size := s.memoSlots()
	wrap, shift := uint64(size-1), 64-bits.TrailingZeros(uint(size))
	i := (mask ^ uint64(j+1)*0xbf58476d1ce4e5b9) * 0x9e3779b97f4a7c15 >> shift
	for s.memoCol[i] != 0 && (s.memoKey[i] != mask || int(s.memoCol[i]) != j+1) {
		i = (i + 1) & wrap
	}
	if s.memoCol[i] != 0 {
		return int(i), true
	}
	if s.memoN >= s.rows {
		return -1, false
	}
	return int(i), false
}

// remember puts the size of the lookup of mask at column c+j in memo slot
// i, when there is one.
func (s *split) remember(i int, mask uint64, j, size int) {
	if i >= 0 {
		s.memoKey[i], s.memoCol[i], s.memoSize[i] = mask, int32(j+1), int32(size)
		s.memoN++
	}
}

// send tallies the size of block b's lookup of mask at column c+j in the
// reply, unless the memo has it, and keeps it on a worker.
func (s *split) send(b *partition.Block, mask uint64, j, size int) {
	slot, sent := s.memo(b, mask, j)
	if sent {
		return
	}
	s.remember(slot, mask, j, size)
	s.sized.add(uint64(size), 1)
	s.keepSize(size)
}

// keepSize appends a size the reply sends to sizes, on a worker. The
// buffer doubles from the slab pool when it is full, and keeps the largest
// reply's room, so a warm worker grows it no more.
func (s *split) keepSize(size int) {
	if !s.keep {
		return
	}
	if len(s.sizes) == cap(s.sizes) {
		grown := slab.Int32s(max(1024, 2*cap(s.sizes)))[:len(s.sizes)]
		copy(grown, s.sizes)
		slab.PutInt32s(s.sizes)
		s.sizes = grown
	}
	s.sizes = append(s.sizes, int32(size))
}

// regionSize is the driver's region source: the size the memo holds, or
// the reply's next region size, which must lie within the block.
func (s *split) regionSize(_ int, b *partition.Block, mask, _ uint64, j, _ int, _ laneSet) (int, bool) {
	slot, sent := s.memo(b, mask, j)
	if sent {
		return int(s.memoSize[slot]), true
	}
	v, ok := readCode(&s.br, s.body.orders[fieldSize], countBits, &s.sized)
	if !ok || v > uint64(b.Width()) {
		return 0, false
	}
	s.remember(slot, mask, j, int(v))
	s.keepSize(int(v))
	return int(v), true
}

// bucketBlockKeys buckets the groups by their delta key in one block and
// column: the group key masked by kMask, the block's PVM mask less the
// stage's bits up to the column's. Groups whose keys differ only outside
// kMask share the key, and so the block's delta regions.
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
// counts added to the lanes of their columns. It reports whether every hit
// is at most its base, as hits that count cells of the regions summed into
// the base are.
func (s *split) expand(deltas []int32) bool {
	for g := 0; g < s.groups.n; g++ {
		base, wide := s.groupBase(g), s.wide[g*lookahead:]
		for j := 0; 1<<j <= len(base); j++ {
			for l := 1<<j - 1; l < 1<<(j+1)-1; l++ {
				base[l] += wide[j]
			}
		}
	}
	within := true
	for r, g := range s.groups.of[:s.rows] {
		base, row := s.groupBase(int(g)), deltas[r*s.lanes:][:s.lanes]
		for l := range row {
			if row[l] > base[l] {
				within = false
			}
			row[l] = base[l] - 2*row[l]
		}
	}
	return within
}
