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
// and (4) of Figure 5) get a table of their own, built over just the rows
// of the cached matrix the block covers (NewFromFactorRows): Algorithm 5's
// lines 3–5, with the slicing done on the R single-column entries before
// the table is filled instead of on all 2^R entries after.
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

	"dbtf/internal/bitvec"
	"dbtf/internal/boolmat"
	"dbtf/internal/slab"
)

// DefaultGroupBits is the paper's default for the threshold V: the maximum
// number of rank bits covered by a single cache table.
const DefaultGroupBits = 15

// Cache holds precomputed Boolean row summations for all 2^R masks over R
// rank bits, split into groups of at most V bits each. It is immutable
// once built and safe for concurrent readers.
type Cache struct {
	rank  int
	width int // bits per entry
	// groups[g] covers rank bits [shift, shift+bits).
	groups []group
	// bitGroup maps each rank bit to its group index.
	bitGroup [boolmat.MaxRank]uint8
}

// group is one table of Lemma 2: two flat arrays from the slab pool. Entry
// m — the OR of the cached columns m selects within the group — is
// words[m·stride:(m+1)·stride] and pop[m] its popcount, so an entry costs
// 8·stride + 4 bytes and no object of its own.
type group struct {
	shift  uint
	bits   int
	mask   uint64
	stride int // words per entry: ⌈width/64⌉
	words  []uint64
	pop    []int32
}

// at returns the words of entry m.
//
//dbtf:noalloc
func (g *group) at(m uint64) []uint64 {
	off := int(m) * g.stride
	return g.words[off : off+g.stride : off+g.stride]
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
// X₍₁₎ ≈ A ∘ (C ⊙ B)ᵀ).
func NewFromFactor(m *boolmat.FactorMatrix, groupBits int) *Cache {
	return NewFromFactorRows(m, 0, m.Rows(), groupBits)
}

// NewFromFactorRows builds a cache over rows [lo, hi) of the matrix's
// columns: the table of a partition block that covers only that part of a
// PVM product (entry bit i is row lo+i). The columns are never
// materialized: the row masks are transposed straight into the single-bit
// entries.
func NewFromFactorRows(m *boolmat.FactorMatrix, lo, hi, groupBits int) *Cache {
	if lo < 0 || hi > m.Rows() || lo > hi {
		panic(fmt.Sprintf("sumcache: rows [%d,%d) out of range of %d", lo, hi, m.Rows()))
	}
	c := newTables(m.Rank(), hi-lo, groupBits)
	var single [boolmat.MaxRank][]uint64
	for r := 0; r < c.rank; r++ {
		single[r] = c.single(r)
		clear(single[r])
	}
	for i := 0; i < hi-lo; i++ {
		for mask := m.RowMask(lo + i); mask != 0; mask &= mask - 1 {
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

// Release returns the tables to the slab pool and poisons the cache against
// further use. Only cache owners with exclusive access at a version
// boundary (the machine registries, on eviction of a stale factor version)
// call it.
func (c *Cache) Release() {
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

// Entries returns the total number of cached row summations across all
// groups (the table capacity of Lemma 5's memory bound).
func (c *Cache) Entries() int {
	n := 0
	for i := range c.groups {
		n += 1 << uint(c.groups[i].bits)
	}
	return n
}

// Sum returns the words of the Boolean row summation for the given mask
// along with its popcount. With a single group they are the cache entry
// itself — callers must treat it as read-only — and scratch is not
// touched. With multiple groups the per-group entries are ORed into
// scratch, which must hold ⌈Width()/64⌉ words, and scratch is returned.
func (c *Cache) Sum(mask uint64, scratch []uint64) (sum []uint64, pop int) {
	g := &c.groups[0]
	m := mask & g.mask
	e := g.at(m)
	if len(c.groups) == 1 {
		return e, int(g.pop[m])
	}
	if len(scratch) != len(e) {
		panic(fmt.Sprintf("sumcache: Sum scratch has %d words, want %d", len(scratch), len(e)))
	}
	copy(scratch, e)
	for i := 1; i < len(c.groups); i++ {
		g := &c.groups[i]
		pop = bitvec.OrCountWords(scratch, scratch, g.at((mask>>g.shift)&g.mask))
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
func (c *Cache) SumDelta(mask, bit uint64, d *Delta) {
	gi := int(c.bitGroup[bits.TrailingZeros64(bit)])
	g := &c.groups[gi]
	m0 := (mask >> g.shift) & g.mask
	m1 := m0 | (bit >> g.shift)
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
