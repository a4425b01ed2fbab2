// Package sumcache implements DBTF's cache of Boolean row summations
// (paper Section III-C, Algorithm 5).
//
// Updating a factor matrix repeatedly computes Boolean sums of selected
// rows of (C ⊙ B)ᵀ. Restricted to the columns of one pointwise
// vector-matrix product (c_k: ⊛ B)ᵀ, such a sum is the OR of the columns
// of B selected by the mask a_i: ∧ c_k: (Lemma 1 plus the Khatri–Rao
// structure). A Cache precomputes those ORs for every possible mask:
// entry m holds ⋁_{r ∈ m} b_:r as a Rows(B)-bit vector.
//
// Because the table has 2^R entries, ranks above a threshold V are split
// into ⌈R/V⌉ groups of (nearly) equal size, each with its own table of at
// most 2^⌈R/⌈R/V⌉⌉ entries (Lemma 2); a full summation then ORs one entry
// per group.
//
// Partition blocks narrower than a full PVM product (block types (1), (2)
// and (4) of Figure 5) use sliced caches derived from the full-size one.
// Sliced entries are materialized lazily and memoized: a partition that
// never queries a mask never pays for slicing it (the eager variant of
// Algorithm 5's lines 3–5 slices all 2^R entries up front, most of which
// sparse row masks never touch).
//
// Beyond full summations, the cache serves error *deltas*: SumDelta
// describes the region of cells that flip 0→1 when one rank bit is added
// to a mask, as the per-group gain vector entry(m|b) &^ entry(m) plus the
// other groups' entries that occlude it. Because cache entries are ORs of
// column subsets, entry(m) ⊆ entry(m|b), so the gain popcount is the
// difference of two cached popcounts — no vector work at all — and rows
// whose gain is empty are skipped outright.
package sumcache

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"dbtf/internal/bitvec"
	"dbtf/internal/boolmat"
	"dbtf/internal/slab"
)

// DefaultGroupBits is the paper's default for the threshold V: the maximum
// number of rank bits covered by a single cache table.
const DefaultGroupBits = 15

// Cache holds precomputed Boolean row summations for all 2^R masks over R
// rank bits, split into groups of at most V bits each. A Cache built by
// New is fully materialized; a Cache returned by Slice materializes its
// entries lazily on first query. Both are safe for concurrent readers.
type Cache struct {
	rank  int
	width int // bits per entry
	// groups[g] covers rank bits [shift, shift+bits).
	groups []group
	// bitGroup maps each rank bit to its group index.
	bitGroup [boolmat.MaxRank]uint8
	// parent and lo/hi are set on lazily sliced caches: entries are bit
	// range [lo, hi) of the parent's entries.
	parent *Cache
	lo, hi int
}

// group is one table of Lemma 2. An eager group is two flat arrays from
// the slab pool: entry m — the OR of the cached columns m selects within
// the group — is words[m·stride:(m+1)·stride] and pop[m] its popcount, so
// an entry costs 8·stride + 4 bytes and no object of its own. A sliced
// group has neither array, only the lazy memo.
type group struct {
	shift  uint
	bits   int
	mask   uint64
	stride int // words per entry: ⌈width/64⌉
	words  []uint64
	pop    []int32
	// lazy[m] memoizes sliced entries; sliced caches only.
	lazy []atomic.Pointer[sliceEntry]
}

// at returns the words of eager entry m.
//
//dbtf:noalloc
func (g *group) at(m uint64) []uint64 {
	off := int(m) * g.stride
	return g.words[off : off+g.stride : off+g.stride]
}

type sliceEntry struct {
	words []uint64
	pop   int32
}

// New builds a cache over the given columns (column r is selected by mask
// bit r); each column must have the same length, which becomes the entry
// width. groupBits is the threshold V; values < 1 mean DefaultGroupBits.
func New(cols []*bitvec.BitVec, groupBits int) *Cache {
	width := 0
	if len(cols) > 0 {
		width = cols[0].Len()
		for i, c := range cols {
			if c.Len() != width {
				panic(fmt.Sprintf("sumcache: column %d has %d bits, want %d", i, c.Len(), width))
			}
		}
	}
	c := newTables(len(cols), width, groupBits)
	for r, col := range cols {
		copy(c.single(r), col.Words())
	}
	c.fill()
	return c
}

// NewFromFactor builds a cache over the columns of a factor matrix: the
// caching matrix M_c of Algorithm 5 (B when updating A against
// X₍₁₎ ≈ A ∘ (C ⊙ B)ᵀ). The columns are never materialized: the matrix's
// row masks are transposed straight into the single-bit entries.
func NewFromFactor(m *boolmat.FactorMatrix, groupBits int) *Cache {
	c := newTables(m.Rank(), m.Rows(), groupBits)
	var single [boolmat.MaxRank][]uint64
	for r := 0; r < c.rank; r++ {
		single[r] = c.single(r)
		clear(single[r])
	}
	for i := 0; i < m.Rows(); i++ {
		for mask := m.RowMask(i); mask != 0; mask &= mask - 1 {
			single[bits.TrailingZeros64(mask)][i>>6] |= 1 << (uint(i) & 63)
		}
	}
	c.fill()
	return c
}

// newTables lays out Lemma 2's ⌈R/V⌉ groups of (nearly) equal size over r
// rank bits and takes every group's two arrays from the slab pool. Their
// contents are unspecified: the caller seeds the single-bit entries and
// calls fill, which between them overwrite every word.
func newTables(r, width, groupBits int) *Cache {
	if groupBits < 1 {
		groupBits = DefaultGroupBits
	}
	if r > boolmat.MaxRank {
		panic(fmt.Sprintf("sumcache: rank %d exceeds %d", r, boolmat.MaxRank))
	}
	c := &Cache{rank: r, width: width}
	numGroups := 1
	if r > groupBits {
		numGroups = (r + groupBits - 1) / groupBits
	}
	base, rem := r/numGroups, r%numGroups
	c.groups = make([]group, numGroups)
	stride := (width + bitvec.WordBits - 1) / bitvec.WordBits
	shift := uint(0)
	for gi := range c.groups {
		bits := base
		if gi < rem {
			bits++
		}
		for b := 0; b < bits; b++ {
			c.bitGroup[int(shift)+b] = uint8(gi)
		}
		n := 1 << uint(bits)
		c.groups[gi] = group{
			shift:  shift,
			bits:   bits,
			mask:   uint64(n) - 1,
			stride: stride,
			words:  slab.Uint64s(n * stride),
			pop:    slab.Int32s(n),
		}
		shift += uint(bits)
	}
	return c
}

// single returns the words of the entry that selects rank bit r alone: the
// table's copy of cached column r.
func (c *Cache) single(r int) []uint64 {
	g := &c.groups[c.bitGroup[r]]
	return g.at(uint64(1) << (uint(r) - g.shift))
}

// fill completes every table from its seeded single-bit entries. Each
// entry is one OR away from a previously computed one (drop the lowest set
// bit), so a table costs one fused OR-and-count pass per entry — the
// paper's "incremental computations that use prior row summation results"
// (Lemma 4, step i). For a single-bit entry that pass is entry 0 ∨ itself:
// it only takes the popcount.
func (c *Cache) fill() {
	for gi := range c.groups {
		g := &c.groups[gi]
		clear(g.at(0)) // the empty summation
		g.pop[0] = 0
		for m := uint64(1); m < uint64(len(g.pop)); m++ {
			prev := m & (m - 1) // m without its lowest set bit
			//dbtf:samewidth all three operands are entries of one table, stride words each
			g.pop[m] = int32(bitvec.OrCountWords(g.at(m), g.at(prev), g.at(m^prev)))
		}
	}
}

// Release returns the eager tables to the slab pool and poisons the cache
// against further use. Only cache owners with exclusive access at a
// version boundary (the machine registries, on eviction of a stale factor
// version) call it; sliced caches own no slabs and their lazily
// materialized entries are independent copies, so only the eager root is
// released.
func (c *Cache) Release() {
	if c.parent != nil {
		return
	}
	for i := range c.groups {
		g := &c.groups[i]
		slab.PutUint64s(g.words)
		slab.PutInt32s(g.pop)
		g.words, g.pop = nil, nil
	}
}

// Rank returns the number of rank bits R the cache covers.
func (c *Cache) Rank() int { return c.rank }

// Width returns the number of bits per cached entry.
func (c *Cache) Width() int { return c.width }

// NumGroups returns the number of cache tables ⌈R/V⌉ (Lemma 2).
func (c *Cache) NumGroups() int { return len(c.groups) }

// Entries returns the total number of cacheable row summations across all
// groups (the table capacity of Lemma 5's memory bound). For lazily
// sliced caches this counts slots, not materialized entries; see
// Materialized.
func (c *Cache) Entries() int {
	n := 0
	for i := range c.groups {
		n += 1 << uint(c.groups[i].bits)
	}
	return n
}

// Materialized returns the number of entries actually computed so far:
// equal to Entries for eager caches, and the memoized subset for lazily
// sliced caches.
func (c *Cache) Materialized() int {
	if c.parent == nil {
		return c.Entries()
	}
	n := 0
	for i := range c.groups {
		g := &c.groups[i]
		for m := range g.lazy {
			if g.lazy[m].Load() != nil {
				n++
			}
		}
	}
	return n
}

// entry returns the words and popcount of the cached summation for mask m
// of group gi: on an eager cache an offset into the table, on a sliced one
// the memoized entry, materialized on first query.
//
//dbtf:noalloc
func (c *Cache) entry(gi int, m uint64) ([]uint64, int32) {
	g := &c.groups[gi]
	if c.parent == nil {
		return g.at(m), g.pop[m]
	}
	e := g.lazy[m].Load()
	if e == nil {
		e = c.materialize(gi, m)
	}
	return e.words, e.pop
}

// materialize slices the parent's entry and memoizes it. Concurrent
// callers converge on a single canonical entry via compare-and-swap.
func (c *Cache) materialize(gi int, m uint64) *sliceEntry {
	slot := &c.groups[gi].lazy[m]
	pw, _ := c.parent.entry(gi, m)
	pv := bitvec.Wrap(c.parent.width, pw)
	e := &sliceEntry{words: pv.Slice(c.lo, c.hi).Words(), pop: int32(pv.OnesCountRange(c.lo, c.hi))}
	if !slot.CompareAndSwap(nil, e) {
		e = slot.Load() // another reader won the race; share its entry
	}
	return e
}

// Sum returns the words of the Boolean row summation for the given mask
// along with its popcount. With a single group they are the cache entry
// itself — callers must treat it as read-only — and scratch is not
// touched. With multiple groups the per-group entries are ORed into
// scratch, which must hold ⌈Width()/64⌉ words, and scratch is returned.
func (c *Cache) Sum(mask uint64, scratch []uint64) (sum []uint64, pop int) {
	e, p := c.entry(0, mask&c.groups[0].mask)
	if len(c.groups) == 1 {
		return e, int(p)
	}
	if len(scratch) != len(e) {
		panic(fmt.Sprintf("sumcache: Sum scratch has %d words, want %d", len(scratch), len(e)))
	}
	copy(scratch, e)
	for i := 1; i < len(c.groups); i++ {
		g := &c.groups[i]
		e, _ := c.entry(i, (mask>>g.shift)&g.mask)
		pop = bitvec.OrCountWords(scratch, scratch, e)
	}
	return scratch, pop
}

// Delta describes the cells that flip 0→1 when a single rank bit is added
// to a mask: the gain region D = (W1 &^ W0) minus the bits already covered
// by the other groups' entries (Occ). The per-row error difference of
// Algorithm 4 then follows from D alone:
//
//	e1 − e0 = |D| − 2·|x_row ∧ D|
//
// because candidate 1's summation is candidate 0's plus exactly D.
// A Delta is only a view into cache entries — word slices are read-only —
// and is refilled in place by SumDelta so hot loops allocate nothing.
type Delta struct {
	// Pop is the gain popcount |entry(m|b)| − |entry(m)| within the bit's
	// group, served from cached popcounts. Pop == 0 means the delta region
	// is empty regardless of occlusion: the row can be skipped.
	Pop int
	// W1, W0 are the words of entry(m|b) and entry(m); the gain vector is
	// W1 &^ W0 (entry(m) ⊆ entry(m|b), so its popcount is Pop).
	W1, W0 []uint64
	// Occ holds the words of the other groups' entries for the mask:
	// cells they cover are already 1 under both candidates and must be
	// excluded from the gain. Empty for single-group caches and for masks
	// that select no column in the other groups.
	Occ [][]uint64
}

// Empty reports whether the delta region is empty, in which case both
// candidate errors are equal and the row contributes no difference.
func (d *Delta) Empty() bool { return d.Pop == 0 }

// SumDelta fills d with the delta region for adding rank bit `bit` (a
// one-hot mask, not set in mask) to `mask`. Two cached popcounts decide
// emptiness before any entry is touched.
//
// The eager case is written out against the flat table rather than through
// entry: it is the innermost call of every factor update, and entry — which
// must also serve sliced caches — is past the inliner's budget, a third of
// this function's time when called two to four times here.
func (c *Cache) SumDelta(mask, bit uint64, d *Delta) {
	gi := int(c.bitGroup[bits.TrailingZeros64(bit)])
	g := &c.groups[gi]
	m0 := (mask >> g.shift) & g.mask
	m1 := m0 | (bit >> g.shift)
	if c.parent != nil {
		c.sumDeltaSliced(gi, m0, m1, mask, d)
		return
	}
	d.Pop = int(g.pop[m1] - g.pop[m0])
	if d.Pop == 0 {
		return
	}
	d.W1, d.W0 = g.at(m1), g.at(m0)
	d.Occ = d.Occ[:0]
	for oi := range c.groups {
		if oi == gi {
			continue
		}
		og := &c.groups[oi]
		// Entry 0 is empty and occludes nothing.
		if om := (mask >> og.shift) & og.mask; om != 0 {
			d.Occ = append(d.Occ, og.at(om))
		}
	}
}

// sumDeltaSliced is SumDelta on a sliced cache. A gain that is empty at
// full width short-circuits without materializing any sliced entry: the
// parent's popcounts decide emptiness for every slice at once.
func (c *Cache) sumDeltaSliced(gi int, m0, m1, mask uint64, d *Delta) {
	if pg := &c.parent.groups[gi]; pg.pop[m1] == pg.pop[m0] {
		d.Pop = 0
		return
	}
	e1, p1 := c.entry(gi, m1)
	e0, p0 := c.entry(gi, m0)
	d.Pop = int(p1 - p0)
	if d.Pop == 0 {
		return
	}
	d.W1, d.W0 = e1, e0
	d.Occ = d.Occ[:0]
	for oi := range c.groups {
		if oi == gi {
			continue
		}
		og := &c.groups[oi]
		if om := (mask >> og.shift) & og.mask; om != 0 {
			oe, _ := c.entry(oi, om)
			d.Occ = append(d.Occ, oe)
		}
	}
}

// Slice derives a cache over bit range [lo, hi) of every entry, used for
// partition blocks that cover only part of a PVM product. Entries are
// materialized lazily and memoized on first query (and shared by
// concurrent readers), so masks that are never summed cost nothing;
// Algorithm 5's eager "slice every entry" pass is the worst case, reached
// only if all 2^R masks are actually queried.
func (c *Cache) Slice(lo, hi int) *Cache {
	if lo < 0 || hi > c.width || lo > hi {
		panic(fmt.Sprintf("sumcache: Slice [%d,%d) out of range of %d bits", lo, hi, c.width))
	}
	if c.parent != nil {
		// Slice relative to the eager root so entry() recurses one level.
		return c.parent.Slice(c.lo+lo, c.lo+hi)
	}
	out := &Cache{
		rank:     c.rank,
		width:    hi - lo,
		groups:   make([]group, len(c.groups)),
		bitGroup: c.bitGroup,
		parent:   c,
		lo:       lo,
		hi:       hi,
	}
	for i := range c.groups {
		g := &c.groups[i]
		out.groups[i] = group{
			shift: g.shift,
			bits:  g.bits,
			mask:  g.mask,
			lazy:  make([]atomic.Pointer[sliceEntry], 1<<uint(g.bits)),
		}
	}
	return out
}
