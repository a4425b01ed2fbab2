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
// Each block stores each nonzero once, in one of the two layouts Algorithm
// 4's error evaluation consumes: CSR with column indices relative to the
// block start, or, at or above DenseRowThreshold, packed row bit vectors.
package partition

import (
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"dbtf/internal/bitvec"
	"dbtf/internal/slab"
	"dbtf/internal/sumcache"
	"dbtf/internal/tensor"
)

// DenseRowThreshold is the block density at or above which a block keeps
// packed row bit vectors instead of the CSR form. The word-parallel dense
// kernels cost ⌈width/64⌉ word operations per row while the sparse offset
// walk costs one (gathered) operation per nonzero, so the break-even
// density is 1/64; storage stays within 64 bits per nonzero, the same
// order as the CSR offsets and row pointers it replaces.
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

	nnz int // the block's nonzero count
	// A sparse block's CSR (nil for a dense one): for row r,
	// bits[rowPtr[r]:rowPtr[r+1]] are column indices relative to Lo, ascending.
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

// AppendRow appends row r's nonzero column offsets relative to the block
// start to dst, ascending, whichever form the block holds.
func (b *Block) AppendRow(dst []int32, r int) []int32 {
	if b.denseWords == nil {
		return append(dst, b.offsets(r)...)
	}
	for wi, w := range b.RowWords(r) {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, int32(wi*bitvec.WordBits+bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// rowLen returns the number of nonzeros in row r.
func (b *Block) rowLen(r int) (n int) {
	if b.denseWords == nil {
		return int(b.rowPtr[r+1] - b.rowPtr[r])
	}
	for _, w := range b.RowWords(r) {
		n += bits.OnesCount64(w)
	}
	return n
}

// offsets returns a sparse block's row r offsets, shared with its CSR.
func (b *Block) offsets(r int) []int32 { return b.bits[b.rowPtr[r]:b.rowPtr[r+1]] }

// NNZ returns the number of nonzeros in the block.
func (b *Block) NNZ() int { return b.nnz }

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

// DeltaError returns e1 − e0 for row r: the difference between the row's
// reconstruction error with the candidate entry set to 1 versus 0, given
// the delta region d of the candidate summations (Algorithm 4's decision
// reduced to the flipped cells only):
//
//	e1 − e0 = |D| − 2·|x_row ∧ D|
//
// Dense blocks intersect the packed row with the delta word-at-a-time;
// sparse blocks walk the row's nonzero offsets. Rows that share a delta
// region count |D| once, materializing it (bitvec.GainWords), and then
// each its Hits.
//
// The engine no longer calls DeltaError: it evaluates through Hits. Only
// the benchmark's partition.deltaerror_* probes and TestRowHalvesMatchDeltaError
// reach it, and through it sparseGainOverlap and bitvec.AndAndNotCountWords;
// the three go once those probes are dropped.
func (b *Block) DeltaError(r int, d *sumcache.Delta) int64 {
	if len(d.Occ) == 0 {
		// Single-group delta: D is exactly the gain vector W1 &^ W0 and
		// |D| is its cached popcount.
		var overlap int
		if b.denseWords != nil {
			overlap = bitvec.AndAndNotCountWords(b.RowWords(r), d.W1, d.W0)
		} else {
			overlap = sparseGainOverlap(b.offsets(r), d.W1, d.W0, nil)
		}
		return int64(d.Pop - 2*overlap)
	}
	if b.denseWords != nil {
		gain, overlap := bitvec.GainCountsWords(b.RowWords(r), d.W1, d.W0, d.Occ)
		return int64(gain - 2*overlap)
	}
	gain, _ := bitvec.GainCountsWords(nil, d.W1, d.W0, d.Occ)
	return int64(gain - 2*sparseGainOverlap(b.offsets(r), d.W1, d.W0, d.Occ))
}

// Hits returns |x_row ∧ D| for row r against a delta region D materialized
// as ⌈width/64⌉ words (bitvec.GainWords): the row's half of DeltaError,
// whose other half |D| is the region's alone. Dense blocks intersect the
// packed row with the region word-at-a-time; sparse blocks gather one
// region word per nonzero.
func (b *Block) Hits(r int, region []uint64) int {
	if b.denseWords != nil {
		return bitvec.AndCountWords(b.RowWords(r), region)
	}
	n := 0
	for _, o := range b.offsets(r) {
		n += int(region[int(o)>>6] >> (uint32(o) & 63) & 1)
	}
	return n
}

// sparseGainOverlap counts the offsets lying inside the occluded gain
// region (w1 &^ w0) &^ occ..., gathering one word per nonzero.
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
func (b *Block) RowError(r int, sum []uint64, pop int) int64 {
	if b.denseWords != nil {
		return int64(bitvec.XorCountWords(b.RowWords(r), sum))
	}
	rowBits := b.offsets(r)
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
	// Blocks are the partition's PVM-aligned blocks, in column order: a
	// window on its partitioning's one block table.
	Blocks []Block
	// bodyBytes is the size of the partition's set-up body (AppendBody),
	// counted by the pass that filled its blocks.
	bodyBytes int64
}

// Width returns the number of columns the partition covers.
func (p *Partition) Width() int { return p.Hi - p.Lo }

// NNZ returns the number of nonzeros in the partition.
func (p *Partition) NNZ() int {
	n := 0
	for i := range p.Blocks {
		n += p.Blocks[i].NNZ()
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
	// Parts holds the N partitions in column order. FromTensor fills every
	// slot; Receive only those of the partitions shipped to it, the rest nil.
	Parts []*Partition
	// ShuffleBytes is the set-up bodies of the partitions held, each counted
	// exactly (ReshipBytes): the data distributing them across machines
	// moves (Lemma 6: O(|X|)).
	ShuffleBytes int64

	// carry is what the set-up bodies leave out; the zero Carry for Build.
	carry Carry

	// The block table every partition's Blocks is a window on, and the
	// backing arenas: the sparse blocks' row pointers and then offsets, and
	// the dense blocks' packed rows. They come from the slab pool at a
	// class's capacity, or from make at their exact length (FromTensorExact).
	blocks     []Block
	csrArena   []int32
	denseArena []uint64
	tables     []int32 // fill's cursor slab, held until FreeTables
}

// Release returns the partitioning's block table and backing arenas to the
// slab pool and poisons it against further use: afterwards no Partition or
// Block derived from it may be touched, and a second Release returns
// nothing. An exact partitioning's (FromTensorExact) arenas never came
// from the pool, and slab.Put drops a slice that is not class-sized, so
// none goes back but one whose length is a class's capacity, which is as
// safe. Owners with a clear end of life (a decomposition returning, a
// worker replacing its setup) call it; everyone else lets the garbage
// collector take the arenas.
func (p *Partitioned) Release() {
	p.FreeTables()
	blockTables.Put(p.blocks)
	slab.PutInt32s(p.csrArena)
	slab.PutUint64s(p.denseArena)
	p.blocks, p.csrArena, p.denseArena = nil, nil, nil
	p.Parts = nil
}

// ResidentBytes returns the bytes the partitioning's block table and arenas
// hold: each one's capacity times its element size. An exact
// partitioning's equals their lengths' bytes; a pooled one's counts each at
// its slab class, up to twice that.
func (p *Partitioned) ResidentBytes() int64 {
	return int64(cap(p.blocks))*int64(unsafe.Sizeof(Block{})) + 4*int64(cap(p.csrArena)) + 8*int64(cap(p.denseArena))
}

// FreeTables returns fill's cursor tables to the slab pool (Release does if
// it was not called). A caller building several partitionings at once calls
// it after all are built, so no build finds or misses a table freed mid-way.
func (p *Partitioned) FreeTables() {
	slab.PutInt32s(p.tables)
	p.tables = nil
}

// ReshipBytes returns the size of partition pi's set-up body: what shipping
// it to a machine moves, at the set-up and again to the survivor that
// inherits it when its home machine is lost, and its share of ShuffleBytes.
func (p *Partitioned) ReshipBytes(pi int) int64 { return p.Parts[pi].bodyBytes }

// AppendBody appends partition pi's set-up body to dst: row by row, the
// count c of the row's nonzeros the body ships — those in segments its
// Carry does not carry — as an order-0 Exp-Golomb code, then their columns
// in ascending order, each as its gap from the one before less one, the
// first column's from the partition's Lo, as order-k codes with k =
// gapOrder(W, c) for a partition W columns wide. The bits run MSB-first and
// the body is zero-padded to a byte, so it is exactly ReshipBytes(pi)
// bytes; Receive reads it back.
func (p *Partitioned) AppendBody(dst []byte, pi int) []byte {
	part := p.Parts[pi]
	first := 0
	if len(part.Blocks) > 0 {
		first = part.Blocks[0].PVM
	}
	row := make([]int32, 0, 512) // one block's row, on the stack; a longer one grows it
	bw := bitvec.NewBitWriter(dst)
	for r := 0; r < p.NumRows; r++ {
		n := 0
		w := p.carry.across(pi, r, first)
		for bi := range part.Blocks {
			if !w.next() {
				n += part.Blocks[bi].rowLen(r)
			}
		}
		bw.ExpGolomb(uint64(n), 0)
		if n == 0 {
			continue
		}
		k := gapOrder(part.Width(), n)
		prev := int32(part.Lo) - 1
		w = p.carry.across(pi, r, first)
		for bi := range part.Blocks {
			if w.next() {
				continue
			}
			b := &part.Blocks[bi]
			lo := int32(b.Lo)
			row = b.AppendRow(row[:0], r)
			for _, o := range row {
				bw.ExpGolomb(uint64(lo+o-prev-1), k)
				prev = lo + o
			}
		}
	}
	return bw.Pad()
}

// gapOrder is the order of the Exp-Golomb codes of a row's gaps when it
// ships count > 0 nonzeros of a partition width columns wide:
// ⌊log2⌊width/count⌋⌋ − 2, at least 0. The row's mean gap is about
// width/count, so its codes mostly spend 2 to 4 bits above k; the decoder
// derives k as the encoder does and nothing is sent for it.
func gapOrder(width, count int) uint {
	return uint(max(bits.Len(uint(width/count))-3, 0))
}

// Carry is the rule by which a partitioning's set-up bodies leave out
// nonzeros the receiving machine already holds in another partitioning of
// the same tensor, the source: mode 1's. All of a row's nonzeros inside one
// block — a segment — share their row and PVM product, and differ only in
// their inner index, which is their mode-1 row (Place), so they lie in one
// mode-1 column, rowStride·row + pvmStride·PVM. The segment is carried, and
// left out, when that column's source partition is homed on the machine the
// block's partition is: partition p of either partitioning is homed on p mod
// machines, and both are cut into n partitions (cut). Whether a segment is
// carried is arithmetic on its row and PVM product alone, never a test of
// its nonzeros. The zero Carry carries nothing.
type Carry struct {
	machines             int
	src                  cut
	rowStride, pvmStride int
}

// NewCarry returns the Carry of mode's partitioning of a dims-shaped tensor
// into n partitions on machines machines. Mode 1 is the source and carries
// nothing. The strides are mode 1's columns of one step along the mode's row
// and product axes.
func NewCarry(dims [3]int, mode tensor.Mode, machines, n int) Carry {
	if mode == tensor.Mode1 {
		return Carry{}
	}
	_, pvm1, inner1 := tensor.Mode1.Axes()
	var stride [3]int
	stride[inner1], stride[pvm1] = 1, dims[inner1]
	row, pvm, _ := mode.Axes()
	return Carry{machines: machines, src: newCut(dims[pvm1]*dims[inner1], n), rowStride: stride[row], pvmStride: stride[pvm]}
}

// carries reports whether row r's segment in PVM product pvm of partition
// pi is carried.
func (c Carry) carries(pi, r, pvm int) bool {
	return c.machines > 0 && c.src.part(r*c.rowStride+pvm*c.pvmStride)%c.machines == pi%c.machines
}

// down walks the segments of a block of PVM product pvm in partition pi,
// row by row.
func (c Carry) down(pi, pvm int) carryWalk {
	return c.walk(pi, pvm*c.pvmStride, c.rowStride)
}

// across walks row r's segments in partition pi block by block, the first
// block in PVM product pvm.
func (c Carry) across(pi, r, pvm int) carryWalk {
	return c.walk(pi, r*c.rowStride+pvm*c.pvmStride, c.pvmStride)
}

// walk returns the walk over segments of partition pi whose source columns
// run from col by step.
func (c Carry) walk(pi, col, step int) carryWalk {
	if c.machines == 0 {
		return carryWalk{end: math.MaxInt}
	}
	return carryWalk{c: c, col: col, step: step, home: pi % c.machines}
}

// carryWalk answers carries for a run of segments whose source columns
// rise by a fixed step — a block's rows, or a row's blocks — dividing only
// where the column crosses into another source partition.
type carryWalk struct {
	c         Carry
	col, step int // the next segment's source column and the step
	// part is the source partition of the segment last walked, at its
	// column, and end the first column past part.
	part, at, end int
	home          int
	carried       bool
}

// next walks one segment and reports whether it is carried.
func (w *carryWalk) next() bool {
	if w.col >= w.end {
		w.part = w.c.src.part(w.col)
		w.end = w.c.src.start(w.part + 1)
		w.carried = w.part%w.c.machines == w.home
	}
	w.at = w.col
	w.col += w.step
	return w.carried
}

// FromTensor vertically partitions x's unfolding in mode (Equation 1) into
// n partitions and splits each partition into PVM-aligned blocks
// (Algorithm 3), straight from x's coordinate list, each nonzero in the
// cell tensor.Mode.Place gives it. n is capped at the column count so every
// partition is nonempty; at least one partition is always produced. The
// set-up bodies, and so ReshipBytes and ShuffleBytes, leave out what carry
// carries. The partitioning holds its cursor tables until FreeTables. Its
// block table and arenas come from the slab pool, for a partitioning that
// dies with its run (Release). It panics on an unfolding whose columns
// overflow int32.
func FromTensor(x *tensor.Tensor, mode tensor.Mode, n int, carry Carry) *Partitioned {
	return fromTensor(x, mode, n, carry, false)
}

// FromTensorExact is FromTensor for a partitioning that outlives its run:
// its block table and arenas are each made once at their exact length, so
// ResidentBytes is their lengths' bytes and no pool class's slack, and
// none is taken from the slab pool. Only the cursor tables are pooled, until
// FreeTables.
func FromTensorExact(x *tensor.Tensor, mode tensor.Mode, n int, carry Carry) *Partitioned {
	return fromTensor(x, mode, n, carry, true)
}

func fromTensor(x *tensor.Tensor, mode tensor.Mode, n int, carry Carry, exact bool) *Partitioned {
	i, j, k := x.Dims()
	px, parts, err := layout([3]int{i, j, k}, mode, n, 0, 1, carry, exact)
	if err != nil {
		panic(err)
	}
	// The list is sorted by (I, J, K): where K indexes the rows, consecutive
	// nonzeros step through rows more often than through blocks.
	row, _, _ := mode.Axes()
	px.fill(parts, row == 2, exact, coordPairs{coords: x.Coords(), mode: mode, width: px.BlockSize}.pairs)
	return px
}

// Build is FromTensor on the tensor and mode u was cut from, its set-up
// bodies carrying nothing.
func Build(u *tensor.Unfolded, n int) *Partitioned {
	x, mode := u.Source()
	return FromTensor(x, mode, n, Carry{})
}

// Receive is FromTensor on a machine that holds partitions first,
// first+step, … of the n that it cuts the dims-shaped tensor's unfolding in
// mode into (0 <= first < step): it fills them from their set-up bodies,
// which body begins with in partition order, and their carried segments
// from src, the machine's own source partitions (nil when carry is zero).
// Every other slot of Parts stays nil. It returns the bytes after the last
// body. A body that is not exactly what AppendBody makes — a code cut short
// or with a zero prefix longer than its partition's width needs, a count
// above the bits left, a column at or past the partition's Hi or inside a
// carried segment, a nonzero padding bit — is an error, and nothing is
// kept; so is an unfolding whose columns overflow int32.
func Receive(dims [3]int, mode tensor.Mode, n, first, step int, carry Carry, src *Columns, body []byte) (*Partitioned, []byte, error) {
	px, parts, err := layout(dims, mode, n, first, step, carry, false)
	if err != nil {
		return nil, nil, err
	}
	rows, blockSize := px.NumRows, px.BlockSize
	if len(parts) == 0 {
		return px, body, nil
	}
	// Every row of a body spends at least its count's bit, and every column
	// a bit too, so the body bounds the rows and the nonzeros.
	if int64(len(parts))*int64(rows) > 8*int64(len(body)) {
		return nil, nil, fmt.Errorf("partition: %d bodies of %d rows need more than the %d bytes left", len(parts), rows, len(body))
	}
	rs := &bodyRows{rows: rows, ptr: slab.Int32s(len(parts) * (rows + 1)), cols: slab.Int32s(8 * len(body)),
		parts: parts, carry: carry, src: src}
	defer rs.release()
	br := bitvec.NewBitReader(body)
	nnz := 0
	for k := range parts {
		p := &parts[k]
		ptr := rs.ptr[k*(rows+1):][:rows+1]
		ptr[0] = int32(nnz)
		width := p.Width()
		for r := 0; r < rows; r++ {
			// A count is at most width, so its code has at most
			// bitlen(width+1) − 1 leading zeros.
			count, ok := br.ExpGolomb(0, bits.Len(uint(width)+1)-1)
			if !ok {
				return nil, nil, fmt.Errorf("partition: partition %d row %d: the count's code is cut short or has more leading zeros than the width %d needs", p.Index, r, width)
			}
			if count > uint64(min(width, br.Left())) {
				return nil, nil, fmt.Errorf("partition: partition %d row %d: the count %d is above the width %d or the %d bits left", p.Index, r, count, width, br.Left())
			}
			if count == 0 {
				ptr[r+1] = int32(nnz)
				continue
			}
			// A gap is below width, so its quotient is at most (width−1)>>k + 1.
			k := gapOrder(width, int(count))
			maxZeros := bits.Len(uint(width-1)>>k+1) - 1
			last, segEnd := int64(p.Lo)-1, int64(-1)
			for j := uint64(0); j < count; j++ {
				gap, ok := br.ExpGolomb(k, maxZeros)
				if !ok {
					return nil, nil, fmt.Errorf("partition: partition %d row %d: column %d's code is cut short or has more than %d leading zeros", p.Index, r, j, maxZeros)
				}
				if gap >= uint64(int64(p.Hi)-last-1) {
					return nil, nil, fmt.Errorf("partition: partition %d row %d: column %d is at or past the partition's end %d", p.Index, r, j, p.Hi)
				}
				last += int64(gap) + 1
				if last >= segEnd {
					pvm := int(last) / blockSize
					segEnd = int64(pvm+1) * int64(blockSize)
					if carry.carries(p.Index, r, pvm) {
						return nil, nil, fmt.Errorf("partition: partition %d row %d: column %d lies in a carried segment", p.Index, r, last)
					}
				}
				rs.cols[nnz] = int32(last)
				nnz++
			}
			ptr[r+1] = int32(nnz)
		}
		if !br.Align() {
			return nil, nil, fmt.Errorf("partition: partition %d: a nonzero bit pads its body", p.Index)
		}
	}
	px.fill(parts, false, false, rs.pairs)
	px.FreeTables()
	return px, br.Rest(), nil
}

// Columns is a partitioning's held nonzeros column by column, rows
// ascending (Transpose): what a receiving machine reads the carried
// segments of its other partitionings from.
type Columns struct {
	// Column c of held partition p has the rows rows[ptr[k] : ptr[k+1]],
	// k = base[p] + c.
	base, ptr, rows []int32
}

// Transpose returns p's held partitions column by column: one count pass
// and one fill over arenas from the slab pool, which Release returns.
func (p *Partitioned) Transpose() *Columns {
	t := &Columns{base: slab.Int32s(len(p.Parts))}
	cols, nnz := 0, 0
	for pi, part := range p.Parts {
		if part != nil {
			t.base[pi] = int32(cols - part.Lo)
			cols += part.Width()
			nnz += part.NNZ()
		}
	}
	t.ptr, t.rows = slab.Int32sZeroed(cols+1), slab.Int32s(nnz)
	each := func(fn func(k, r int)) {
		row := make([]int32, 0, 512) // one block's row, on the stack; a longer one grows it
		for pi, part := range p.Parts {
			if part == nil {
				continue
			}
			for bi := range part.Blocks {
				b := &part.Blocks[bi]
				off := int(t.base[pi]) + b.Lo
				for r := 0; r < p.NumRows; r++ {
					row = b.AppendRow(row[:0], r)
					for _, o := range row {
						fn(off+int(o), r)
					}
				}
			}
		}
	}
	each(func(k, _ int) { t.ptr[k+1]++ })
	for k := 1; k <= cols; k++ {
		t.ptr[k] += t.ptr[k-1]
	}
	// Rows are visited in ascending order within every block, so each
	// column's come out ascending; ptr[k] ends at column k's end.
	each(func(k, r int) {
		t.rows[t.ptr[k]] = int32(r)
		t.ptr[k]++
	})
	copy(t.ptr[1:], t.ptr[:cols])
	t.ptr[0] = 0
	return t
}

// column returns the rows of column c of held partition p.
func (t *Columns) column(p, c int) []int32 {
	k := int(t.base[p]) + c
	return t.rows[t.ptr[k]:t.ptr[k+1]]
}

// Release returns the arenas to the slab pool; t must not be used after.
func (t *Columns) Release() {
	slab.PutInt32s(t.base)
	slab.PutInt32s(t.ptr)
	slab.PutInt32s(t.rows)
	*t = Columns{}
}

// cut is Algorithm 3's vertical cut of an unfolding's cols columns into n
// partitions of near-equal width: partition p holds the columns
// [start(p), start(p+1)).
type cut struct{ cols, n int }

// newCut cuts cols columns into n >= 1 partitions, n capped at cols so that
// every partition is nonempty.
func newCut(cols, n int) cut {
	if n < 1 {
		panic(fmt.Sprintf("partition: n must be >= 1, got %d", n))
	}
	if cols > 0 {
		n = min(n, cols)
	}
	return cut{cols: cols, n: n}
}

// start returns partition p's first column, p·cols/n.
func (c cut) start(p int) int { return p * c.cols / c.n }

// part returns the partition holding column col: the p with
// start(p) <= col < start(p+1).
func (c cut) part(col int) int { return ((col+1)*c.n - 1) / c.cols }

// blockTables is the slab pool's free list of block tables (layout).
var blockTables slab.List[Block]

// layout cuts the dims-shaped tensor's unfolding in mode into n partitions
// (cut), and lays out partitions first, first+step, …, whose set-up bodies
// leave out what carry carries: their bounds and PVM-aligned blocks with
// their Figure 5 types, no nonzero. Every other slot of Parts stays nil. It
// returns the partitions laid out, or the column guard's error. The blocks
// are one table, in column order, taken from the slab pool (blockTables),
// or made at its length when exact is set, and held as px.blocks until
// Release; each partition's Blocks is its window on it. The partitions, and
// Parts's pointers to them, are one make each: N of them are far below the
// pool's floor. Both are sized by counting first: a partition over [lo, hi)
// meets the PVM products lo/blockSize … (hi−1)/blockSize, one block apiece.
func layout(dims [3]int, mode tensor.Mode, n, first, step int, carry Carry, exact bool) (*Partitioned, []Partition, error) {
	cols, err := mode.Columns(dims[0], dims[1], dims[2])
	if err != nil {
		return nil, nil, err
	}
	rows, _, blockSize := mode.Place(tensor.Coord{I: dims[0], J: dims[1], K: dims[2]})
	c := newCut(cols, n)
	px := &Partitioned{NumRows: rows, NumCols: cols, BlockSize: blockSize, Parts: make([]*Partition, c.n), carry: carry}
	held, nb := 0, 0
	for i := first; i < c.n; i += step {
		held++
		if lo, hi := c.start(i), c.start(i+1); hi > lo {
			nb += (hi-1)/blockSize - lo/blockSize + 1
		}
	}
	var blocks []Block
	if exact {
		blocks = make([]Block, nb)
	} else {
		blocks = blockTables.Get(nb)
	}
	parts := make([]Partition, held)
	bi := 0
	for k := range parts {
		i := first + k*step
		lo, hi := c.start(i), c.start(i+1)
		start := bi
		for cur := lo; cur < hi; bi++ {
			s := spanAt(cur, hi, blockSize)
			blocks[bi] = Block{
				PVM:     s.pvm,
				Lo:      s.lo,
				Hi:      s.hi,
				InnerLo: s.lo - s.pvm*blockSize,
				Type:    classify(s, blockSize),
			}
			cur = s.hi
		}
		parts[k] = Partition{Index: i, Lo: lo, Hi: hi, Blocks: blocks[start:bi:bi]}
		px.Parts[i] = &parts[k]
	}
	px.blocks = blocks
	return px, parts, nil
}

// filler is fill's count-and-fill over the (row, block) segments. cur,
// indexed row·rowStride + block·blockStride, counts each segment's nonzeros
// in the count pass (bits nil), then holds a sparse segment's position in
// bits where its next offset goes, or a dense one's ^(its row's first word
// in words).
type filler struct {
	rowStride, blockStride int
	// lo and hi are the laid-out blocks' global column bounds, first[pvm]
	// the first block laid out in PVM product pvm (unset where none is).
	lo, hi, first []int32
	cur, bits     []int32
	words         []uint64
}

// seek returns the block holding column col, walking on from block b: a
// row's ascending columns walk its blocks once.
func (f *filler) seek(b int, col int32) int {
	for col >= f.hi[b] {
		b++
	}
	return b
}

// add counts or places the nonzero in column col of row r, inside block b:
// its offset at the segment's cursor, or its bit in a dense block's row.
func (f *filler) add(r, b int, col int32) {
	k, o := r*f.rowStride+b*f.blockStride, col-f.lo[b]
	switch c := f.cur[k]; {
	case f.bits == nil:
		f.cur[k]++
	case c < 0:
		f.words[int(^c)+int(o>>6)] |= 1 << (o & 63)
	default:
		f.bits[c] = o
		f.cur[k]++
	}
}

// coordPairs is the coordinator's source, a tensor's coordinate list: each
// nonzero lies in the row, PVM product and inner index Place gives it, in
// column pvm·width + inner, every product laid out. The list is sorted by
// (I, J, K), which for every mode leaves the inner index ascending within a
// fixed row and product.
type coordPairs struct {
	coords []tensor.Coord
	mode   tensor.Mode
	width  int
}

func (s coordPairs) pairs(f filler) {
	for _, c := range s.coords {
		row, pvm, inner := s.mode.Place(c)
		col := int32(inner + pvm*s.width)
		f.add(row, f.seek(int(f.first[pvm]), col), col)
	}
}

// bodyRows is a receiving machine's source: its partitions' decoded set-up
// bodies, and for the segments they carry the machine's source partitions.
// Row r of the k-th partition's body holds the global columns
// cols[ptr[k(rows+1)+r] : ptr[k(rows+1)+r+1]].
type bodyRows struct {
	rows      int
	ptr, cols []int32
	parts     []Partition
	carry     Carry
	src       *Columns
}

// pairs reads a carried segment from the source column it lies in — the
// rows i there inside the block are its columns PVM·BlockSize + i — and
// every other segment from the body.
func (s *bodyRows) pairs(f filler) {
	rows, base := s.rows, 0
	for k := range s.parts {
		p := &s.parts[k]
		ptr := s.ptr[k*(rows+1):][:rows+1]
		for r := 0; r < rows; r++ {
			b := base
			for _, c := range s.cols[ptr[r]:ptr[r+1]] {
				b = f.seek(b, c)
				f.add(r, b, c)
			}
		}
		for bi := range p.Blocks {
			blk := &p.Blocks[bi]
			w := s.carry.down(p.Index, blk.PVM)
			for r := 0; r < rows; r++ {
				if w.next() {
					for _, i := range trimSegment(s.src.column(w.part, w.at), int32(blk.InnerLo), int32(blk.InnerLo+blk.Width())) {
						f.add(r, base+bi, int32(blk.Lo-blk.InnerLo)+i)
					}
				}
			}
		}
		base += len(p.Blocks)
	}
}

func (s *bodyRows) release() {
	slab.PutInt32s(s.ptr)
	slab.PutInt32s(s.cols)
}

// fill writes every laid-out block in the one form its density gives it —
// CSR, or packed rows at or above DenseRowThreshold — and counts every
// partition's set-up body. pairs is one of its two sources, the coordinate
// list (coordPairs) or Receive's decoded bodies (bodyRows): called once to
// count and once to place, it hands the filler every nonzero it holds as its
// row, block and column, in any order that keeps a row's columns inside a
// block ascending. The count pass sizes every (row, block) segment and so
// every block's form; the sparse blocks' segments are laid out block by
// block, each block's rows in order, in one arena, and the fill pass writes
// each offset at its segment's cursor, or a dense block's bit in its row.
// The cursors run row by row, or block by block when byBlock is set, for a
// source whose consecutive nonzeros step through rows more often than
// through blocks. The arenas are made at their exact length when exact is
// set, else taken from the slab pool. A short pass then adds up each body's
// codes — each row's count, summed over the segments the body ships, and
// its gaps, which run on across the partition's blocks from one shipped
// nonzero to the next. A carried segment is written and not tallied.
func (px *Partitioned) fill(parts []Partition, byBlock, exact bool, pairs func(filler)) {
	all := px.blocks
	rows, nb, products := px.NumRows, len(all), 0
	if px.BlockSize > 0 {
		products = px.NumCols / px.BlockSize
	}
	// One slab holds the cursors, the blocks' tables and, for the tally
	// pass, last[r], the last column of row r shipped in the partition being
	// tallied, and order[r], the order of the row's gap codes there.
	tables := slab.Int32s(rows*nb + 2*nb + products + 2*rows)
	rest := tables
	take := func(n int) (s []int32) { s, rest = rest[:n:n], rest[n:]; return s }
	f := filler{rowStride: nb, blockStride: 1, cur: take(rows * nb), lo: take(nb), hi: take(nb), first: take(products)}
	last, order := take(rows), take(rows)
	clear(f.cur)
	if byBlock {
		f.rowStride, f.blockStride = 1, rows
	}
	for bi := nb - 1; bi >= 0; bi-- {
		f.lo[bi], f.hi[bi], f.first[all[bi].PVM] = int32(all[bi].Lo), int32(all[bi].Hi), int32(bi)
	}
	pairs(f)
	sparse, denseTotal, nnz := 0, 0, 0
	for bi := range all {
		b := &all[bi]
		for r := 0; r < rows; r++ {
			b.nnz += int(f.cur[r*f.rowStride+bi*f.blockStride])
		}
		if cells := rows * b.Width(); cells > 0 && float64(b.nnz)/float64(cells) >= DenseRowThreshold {
			b.stride = (b.Width() + bitvec.WordBits - 1) / bitvec.WordBits
			denseTotal += rows * b.stride
		} else {
			sparse, nnz = sparse+1, nnz+b.nnz
		}
	}
	// Both pooled arenas are taken at the pool's 2 KiB floor at least, so a
	// set whose one form holds few nonzeros costs no extra object; exact
	// ones are made at their length, zeroed.
	n := sparse*(rows+1) + nnz
	if exact {
		px.csrArena, px.denseArena = make([]int32, n), make([]uint64, denseTotal)
	} else {
		px.csrArena, px.denseArena = slab.Int32s(max(n, 512))[:n], slab.Uint64sZeroed(max(denseTotal, 256))[:denseTotal]
	}
	ptrArena, words, pos := px.csrArena[:n-nnz], 0, int32(0)
	f.bits, f.words = px.csrArena[n-nnz:], px.denseArena
	for bi := range all {
		b := &all[bi]
		if b.stride > 0 {
			b.denseWords = px.denseArena[words : words+rows*b.stride]
			for r := 0; r < rows; r++ {
				f.cur[r*f.rowStride+bi*f.blockStride] = ^int32(words + r*b.stride)
			}
			words += rows * b.stride
			continue
		}
		b.rowPtr, ptrArena = ptrArena[:rows+1:rows+1], ptrArena[rows+1:]
		start := pos
		for r := 0; r < rows; r++ {
			b.rowPtr[r] = pos - start
			k := r*f.rowStride + bi*f.blockStride
			pos, f.cur[k] = pos+f.cur[k], pos
		}
		b.rowPtr[rows] = pos - start
		b.bits = f.bits[start:pos:pos]
	}
	pairs(f)
	row := make([]int32, 0, 512) // one block's row, on the stack; a longer one grows it
	for k := range parts {
		p := &parts[k]
		// A row's gap codes need its shipped count, summed over the segments
		// the body ships. Its code is tallied here, then the slot holds the
		// order.
		for r := range last {
			last[r], order[r] = int32(p.Lo)-1, 0
		}
		for bi := range p.Blocks {
			w := px.carry.down(p.Index, p.Blocks[bi].PVM)
			for r := range order {
				if !w.next() {
					order[r] += int32(p.Blocks[bi].rowLen(r))
				}
			}
		}
		body := 0 // bits
		for r, c := range order {
			body += bitvec.ExpGolombBits(uint64(c), 0)
			if c > 0 {
				order[r] = int32(gapOrder(p.Width(), int(c)))
			}
		}
		for bi := range p.Blocks {
			b := &p.Blocks[bi]
			lo := int32(b.Lo)
			w := px.carry.down(p.Index, b.PVM)
			for r := range last {
				if w.next() {
					continue
				}
				if row = b.AppendRow(row[:0], r); len(row) == 0 {
					continue
				}
				// A gap's code is 2·bitlen(q) − 1 + k bits.
				ord := order[r]
				body += 2*gapLens(row, lo, last[r], uint32(ord)) + len(row)*(int(ord)-1)
				last[r] = lo + row[len(row)-1]
			}
		}
		p.bodyBytes = int64(body+7) / 8
		px.ShuffleBytes += p.bodyBytes
	}
	px.tables = tables
}

// gapLens returns the sum over offs of bitlen((c − p − 1)>>k + 1), c the
// column lo + o and p the column before c, prev before the first: the
// quotients' lengths of their order-k gap codes.
func gapLens(offs []int32, lo, prev int32, k uint32) int {
	lens := 0
	for _, o := range offs {
		c := lo + o
		lens += bits.Len32(uint32(c-prev-1)>>(k&31) + 1)
		prev = c
	}
	return lens
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
		for bi := range p.Blocks {
			if p.Blocks[bi].Type == t && !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	return out
}
