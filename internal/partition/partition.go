// Package partition implements DBTF's cache-friendly vertical partitioning
// of unfolded tensors (paper Section III-D, Algorithm 3).
//
// An unfolded tensor X₍ₙ₎ ∈ B^{P×Q} is split column-wise into N contiguous
// partitions of near-equal width (partition sizes differ by at most one
// column, satisfying Algorithm 3's ⌊Q/N⌋ ≤ H ≤ ⌈Q/N⌉). Each partition is
// further divided into blocks at the boundaries of the underlying pointwise
// vector-matrix (PVM) products, so that every block lies within a single
// PVM product and can fetch its Boolean row summations from one cache
// table. Blocks are classified into the four types of Figure 5; Lemma 3
// (at most three types per partition) is asserted by tests.
//
// Each block stores its nonzeros in compressed sparse row form with column
// indices relative to the block start, the exact layout the error
// evaluation of Algorithm 4 consumes.
package partition

import (
	"fmt"

	"dbtf/internal/bitvec"
	"dbtf/internal/slab"
	"dbtf/internal/sumcache"
	"dbtf/internal/tensor"
)

// DenseRowThreshold is the block density at or above which packed row bit
// vectors are built alongside the CSR form. The word-parallel dense
// kernels cost ⌈width/64⌉ word operations per row while the sparse offset
// walk costs one (gathered) operation per nonzero, so the break-even
// density is 1/64; storage stays within 64 bits per nonzero, the same
// order as the CSR offsets.
const DenseRowThreshold = 1.0 / 64

// BlockType classifies a block by how it meets the boundaries of its PVM
// product (the numbered kinds of the paper's Figure 5).
type BlockType int

// Block types (1)-(4) of Figure 5.
const (
	// Interior blocks touch neither boundary of their PVM product: the
	// partition lies strictly inside a single product.
	Interior BlockType = 1
	// Suffix blocks end exactly at their product's right boundary but
	// start inside it.
	Suffix BlockType = 2
	// Full blocks cover an entire PVM product.
	Full BlockType = 3
	// Prefix blocks start exactly at their product's left boundary but end
	// inside it.
	Prefix BlockType = 4
)

// String returns the paper's numeral for the block type.
func (t BlockType) String() string {
	switch t {
	case Interior:
		return "(1)"
	case Suffix:
		return "(2)"
	case Full:
		return "(3)"
	case Prefix:
		return "(4)"
	default:
		return fmt.Sprintf("BlockType(%d)", int(t))
	}
}

// Block is a maximal column range of a partition lying within a single PVM
// product.
type Block struct {
	// PVM is the index of the covering PVM product: for mode-1 updates of
	// A against X₍₁₎ ≈ A ∘ (C ⊙ B)ᵀ this is the row index k of C.
	PVM int
	// Lo and Hi delimit the block's global column range [Lo, Hi).
	Lo, Hi int
	// InnerLo is Lo − PVM·BlockSize: the block's starting offset inside
	// its PVM product. A sliced cache over [InnerLo, InnerLo+width) serves
	// this block.
	InnerLo int
	// Type is the Figure 5 classification.
	Type BlockType

	// CSR of the block's nonzeros: for row r, bits[rowPtr[r]:rowPtr[r+1]]
	// are column indices relative to Lo, sorted ascending.
	rowPtr []int32
	bits   []int32

	// denseWords packs every row as a width-bit vector (stride words per
	// row) when the block's density reaches DenseRowThreshold; nil for
	// sparse blocks. The error kernels pick the representation per block.
	denseWords []uint64
	stride     int
}

// Width returns the number of columns the block covers.
func (b *Block) Width() int { return b.Hi - b.Lo }

// RowBits returns row r's nonzero column offsets relative to the block
// start. The slice is shared; callers must not modify it.
func (b *Block) RowBits(r int) []int32 {
	return b.bits[b.rowPtr[r]:b.rowPtr[r+1]]
}

// NNZ returns the number of nonzeros in the block.
func (b *Block) NNZ() int { return len(b.bits) }

// Dense reports whether the block carries packed row bit vectors and the
// word-parallel kernels apply to it.
func (b *Block) Dense() bool { return b.denseWords != nil }

// RowWords returns row r's packed words (⌈width/64⌉ of them); nil for
// sparse blocks. The slice is shared; callers must not modify it.
func (b *Block) RowWords(r int) []uint64 {
	if b.denseWords == nil {
		return nil
	}
	return b.denseWords[r*b.stride : (r+1)*b.stride]
}

// Density returns the fraction of set cells in the block.
func (b *Block) Density(rows int) float64 {
	cells := rows * b.Width()
	if cells == 0 {
		return 0
	}
	return float64(len(b.bits)) / float64(cells)
}

// DeltaError returns e1 − e0 for row r: the difference between the row's
// reconstruction error with the candidate entry set to 1 versus 0, given
// the delta region d of the candidate summations (Algorithm 4's decision
// reduced to the flipped cells only):
//
//	e1 − e0 = |D| − 2·|x_row ∧ D|
//
// Dense blocks intersect the packed row with the delta word-at-a-time;
// sparse blocks walk the row's nonzero offsets.
//
//dbtf:noalloc
func (b *Block) DeltaError(r int, d *sumcache.Delta) int64 {
	if len(d.Occ) == 0 {
		// Single-group delta: D is exactly the gain vector W1 &^ W0 and
		// |D| is its cached popcount.
		var overlap int
		if b.denseWords != nil {
			//dbtf:samewidth block stride and delta words both equal ceil(width/64) for the block's cache slice
			overlap = bitvec.AndAndNotCountWords(b.RowWords(r), d.W1, d.W0)
		} else {
			overlap = sparseGainOverlap(b.RowBits(r), d.W1, d.W0, nil)
		}
		return int64(d.Pop - 2*overlap)
	}
	if b.denseWords != nil {
		//dbtf:samewidth block stride and delta words both equal ceil(width/64) for the block's cache slice
		gain, overlap := bitvec.GainCountsWords(b.RowWords(r), d.W1, d.W0, d.Occ)
		return int64(gain - 2*overlap)
	}
	//dbtf:samewidth nil row is allowed by the kernel; delta words share one cache slice width
	gain, _ := bitvec.GainCountsWords(nil, d.W1, d.W0, d.Occ)
	return int64(gain - 2*sparseGainOverlap(b.RowBits(r), d.W1, d.W0, d.Occ))
}

// sparseGainOverlap counts the offsets lying inside the occluded gain
// region (w1 &^ w0) &^ occ..., gathering one word per nonzero.
//
//dbtf:noalloc
func sparseGainOverlap(offs []int32, w1, w0 []uint64, occ [][]uint64) int {
	n := 0
	for _, o := range offs {
		wi := int(o) >> 6
		d := w1[wi] &^ w0[wi] & (uint64(1) << (uint32(o) & 63))
		if d == 0 {
			continue
		}
		for _, ow := range occ {
			d &^= ow[wi]
		}
		if d != 0 {
			n++
		}
	}
	return n
}

// RowError returns |x_row ⊕ sum| for row r against the words of a
// materialized candidate summation with popcount pop. Dense blocks use the
// word-parallel Hamming distance; sparse blocks walk the nonzeros
// (nnz + |sum| − 2·overlap, Lemma 4's note on step iii).
//
//dbtf:noalloc
func (b *Block) RowError(r int, sum []uint64, pop int) int64 {
	if b.denseWords != nil {
		//dbtf:samewidth the summation comes from the block's own cache slice, so its word count equals the stride
		return int64(bitvec.XorCountWords(b.RowWords(r), sum))
	}
	rowBits := b.RowBits(r)
	overlap := 0
	for _, off := range rowBits {
		overlap += int(sum[int(off)>>6] >> (uint32(off) & 63) & 1)
	}
	return int64(len(rowBits) + pop - 2*overlap)
}

// Partition is one contiguous vertical slice of an unfolded tensor.
type Partition struct {
	// Index is the partition's position 0..N-1.
	Index int
	// Lo and Hi delimit the partition's global column range [Lo, Hi).
	Lo, Hi int
	// Blocks are the partition's PVM-aligned blocks, in column order.
	Blocks []*Block
}

// Width returns the number of columns the partition covers.
func (p *Partition) Width() int { return p.Hi - p.Lo }

// NNZ returns the number of nonzeros in the partition.
func (p *Partition) NNZ() int {
	n := 0
	for _, b := range p.Blocks {
		n += b.NNZ()
	}
	return n
}

// Partitioned is a vertically partitioned unfolded tensor: the cached,
// distributed form px of Algorithm 3.
type Partitioned struct {
	// NumRows is the row count P of the unfolded tensor.
	NumRows int
	// NumCols is the column count Q.
	NumCols int
	// BlockSize is the PVM product width (rows of the second Khatri–Rao
	// operand).
	BlockSize int
	// Parts holds the N partitions in column order.
	Parts []*Partition
	// ShuffleBytes estimates the data volume moved when distributing the
	// partitions across machines (Lemma 6: O(|X|)).
	ShuffleBytes int64

	// Backing arenas shared by every block's CSR offsets, row pointers and
	// packed rows; returned to the slab pool by Release.
	ptrArena, bitsArena []int32
	denseArena          []uint64
}

// Release returns the partitioning's backing arenas to the slab pool and
// poisons it against further use: afterwards no Partition or Block derived
// from it may be touched. Owners with a clear end of life (a decomposition
// returning, a worker replacing its setup) call it; everyone else lets the
// garbage collector take the arenas.
func (p *Partitioned) Release() {
	slab.PutInt32s(p.ptrArena)
	slab.PutInt32s(p.bitsArena)
	slab.PutUint64s(p.denseArena)
	p.ptrArena, p.bitsArena, p.denseArena = nil, nil, nil
	p.Parts = nil
}

// ReshipBytes estimates the data volume of re-shipping partition pi to a
// surviving machine after its home machine is lost: the partition's share
// of ShuffleBytes — 12 bytes per nonzero plus the partition's own
// row-pointer overhead.
func (p *Partitioned) ReshipBytes(pi int) int64 {
	return int64(p.Parts[pi].NNZ())*12 + int64(p.NumRows)*4
}

// Build vertically partitions an unfolded tensor into n partitions and
// splits each partition into PVM-aligned blocks (Algorithm 3). n is capped
// at the column count so every partition is nonempty; at least one
// partition is always produced.
func Build(u *tensor.Unfolded, n int) *Partitioned {
	if n < 1 {
		panic(fmt.Sprintf("partition: n must be >= 1, got %d", n))
	}
	if u.NumCols > 0 && n > u.NumCols {
		n = u.NumCols
	}
	px := &Partitioned{
		NumRows:   u.NumRows,
		NumCols:   u.NumCols,
		BlockSize: u.BlockSize,
		// 12 bytes per nonzero (row, column) plus row-pointer overhead
		// approximates the shuffled representation.
		ShuffleBytes: int64(u.NNZ())*12 + int64(u.NumRows)*4,
	}
	// Lay out every partition's blocks first; together their column ranges
	// tile [0, NumCols) in ascending order, so all CSR forms can be filled
	// by merged sweeps per row instead of per-block binary searches. The
	// blocks, the pointers to them and the partitions are one slab each,
	// sized by counting first: a partition over [lo, hi) meets the PVM
	// products lo/BlockSize … (hi−1)/BlockSize, one block apiece.
	bounds := func(i int) (lo, hi int) { return i * u.NumCols / n, (i + 1) * u.NumCols / n }
	nb := 0
	for i := 0; i < n; i++ {
		if lo, hi := bounds(i); hi > lo {
			nb += (hi-1)/u.BlockSize - lo/u.BlockSize + 1
		}
	}
	blocks, all := make([]Block, nb), make([]*Block, nb)
	parts := make([]Partition, n)
	px.Parts = make([]*Partition, n)
	bi := 0
	for i := range parts {
		lo, hi := bounds(i)
		first := bi
		for cur := lo; cur < hi; bi++ {
			s := spanAt(cur, hi, u.BlockSize)
			blocks[bi] = Block{
				PVM:     s.pvm,
				Lo:      s.lo,
				Hi:      s.hi,
				InnerLo: s.lo - s.pvm*u.BlockSize,
				Type:    classify(s, u.BlockSize),
			}
			all[bi] = &blocks[bi]
			cur = s.hi
		}
		parts[i] = Partition{Index: i, Lo: lo, Hi: hi, Blocks: all[first:bi:bi]}
		px.Parts[i] = &parts[i]
	}

	// Every block is a column range inside a single PVM product, so its
	// row segments are sub-ranges of the unfolding's (row, PVM block)
	// buckets, each found by arithmetic. The count pass takes a full
	// block's row lengths straight from the bucket lengths — no nonzero is
	// touched — and trims the bucket's ends for the at-most-two partial
	// blocks a partition boundary cuts into a product. The fill pass then
	// writes each block's CSR offsets (and packed rows, for blocks at or
	// above DenseRowThreshold) sequentially into arenas shared by all
	// blocks.
	rows := u.NumRows
	ptrArena := slab.Int32s(nb * (rows + 1))
	denseTotal := 0
	bitsOff := make([]int32, nb+1)
	for bi, b := range all {
		rp := ptrArena[bi*(rows+1) : (bi+1)*(rows+1)]
		rp[0] = 0 // the arena is recycled, not zeroed
		if b.Type == Full {
			for r := 0; r < rows; r++ {
				rp[r+1] = rp[r] + int32(len(u.BlockRow(r, b.PVM)))
			}
		} else {
			lo, hi := int32(b.Lo), int32(b.Hi)
			for r := 0; r < rows; r++ {
				rp[r+1] = rp[r] + int32(len(trimSegment(u.BlockRow(r, b.PVM), lo, hi)))
			}
		}
		total := int(rp[rows])
		b.rowPtr = rp
		bitsOff[bi+1] = bitsOff[bi] + int32(total)
		if cells := rows * b.Width(); cells > 0 &&
			float64(total)/float64(cells) >= DenseRowThreshold {
			b.stride = (b.Width() + bitvec.WordBits - 1) / bitvec.WordBits
			denseTotal += rows * b.stride
		}
	}
	bitsArena := slab.Int32s(u.NNZ())
	denseArena := slab.Uint64sZeroed(denseTotal)
	px.ptrArena, px.bitsArena, px.denseArena = ptrArena, bitsArena, denseArena
	denseOff := 0
	for bi, b := range all {
		b.bits = bitsArena[bitsOff[bi]:bitsOff[bi+1]:bitsOff[bi+1]]
		if b.stride > 0 {
			b.denseWords = denseArena[denseOff : denseOff+rows*b.stride]
			denseOff += rows * b.stride
		}
		lo, hi, pvm, full := int32(b.Lo), int32(b.Hi), b.PVM, b.Type == Full
		pos := 0
		for r := 0; r < rows; r++ {
			seg := u.BlockRow(r, pvm)
			if !full {
				seg = trimSegment(seg, lo, hi)
			}
			if b.stride > 0 {
				base := r * b.stride
				for _, c := range seg {
					o := c - lo
					b.bits[pos] = o
					pos++
					b.denseWords[base+int(o)>>6] |= uint64(1) << (uint32(o) & 63)
				}
			} else {
				for _, c := range seg {
					b.bits[pos] = c - lo
					pos++
				}
			}
		}
	}
	return px
}

// trimSegment narrows a sorted bucket segment to columns [lo, hi). Partial
// blocks sit at partition boundaries, so the trimmed ends are short; a
// linear trim beats binary search at bucket sizes.
func trimSegment(seg []int32, lo, hi int32) []int32 {
	for len(seg) > 0 && seg[0] < lo {
		seg = seg[1:]
	}
	for len(seg) > 0 && seg[len(seg)-1] >= hi {
		seg = seg[:len(seg)-1]
	}
	return seg
}

type span struct {
	pvm    int
	lo, hi int
}

// spanAt returns the block that starts at column cur of a partition ending
// at hi: it runs to the end of cur's PVM product or of the partition,
// whichever comes first.
func spanAt(cur, hi, blockSize int) span {
	pvm := cur / blockSize
	return span{pvm: pvm, lo: cur, hi: min((pvm+1)*blockSize, hi)}
}

func classify(s span, blockSize int) BlockType {
	left := s.lo == s.pvm*blockSize
	right := s.hi == (s.pvm+1)*blockSize
	switch {
	case left && right:
		return Full
	case left:
		return Prefix
	case right:
		return Suffix
	default:
		return Interior
	}
}

// TypeSet returns the distinct block types present in the partition, in
// ascending order. Lemma 3 guarantees at most three.
func (p *Partition) TypeSet() []BlockType {
	seen := map[BlockType]bool{}
	var out []BlockType
	for _, t := range []BlockType{Interior, Suffix, Full, Prefix} {
		for _, b := range p.Blocks {
			if b.Type == t && !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	return out
}
