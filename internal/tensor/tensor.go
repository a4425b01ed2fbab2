// Package tensor implements sparse three-way Boolean tensors: construction,
// mode-n matricization (unfolding, Equation 1 of the paper), reconstruction
// from Boolean CP factors, and reconstruction-error computation.
//
// A tensor X ∈ B^{I×J×K} is stored as a sorted, deduplicated coordinate
// list of its nonzero entries. All indices are 0-based (the paper uses
// 1-based indices; the unfolding maps below are the 0-based equivalents of
// Equation 1).
package tensor

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"slices"
	"sort"
	"strconv"

	"dbtf/internal/bitvec"
	"dbtf/internal/boolmat"
	"dbtf/internal/slab"
)

// Coord is the coordinate of a nonzero tensor entry.
type Coord struct {
	I, J, K int
}

// Tensor is a sparse three-way Boolean tensor. The zero value is unusable;
// construct with New or FromCoords.
type Tensor struct {
	dimI, dimJ, dimK int
	coords           []Coord // sorted lexicographically by (I, J, K), deduplicated
}

// New returns an empty tensor with the given mode dimensions.
func New(i, j, k int) *Tensor {
	if i < 0 || j < 0 || k < 0 {
		panic("tensor: negative dimension")
	}
	return &Tensor{dimI: i, dimJ: j, dimK: k}
}

// FromCoords builds a tensor from a coordinate list. The list is copied,
// sorted, and deduplicated. Coordinates outside the dimensions are
// rejected.
func FromCoords(i, j, k int, coords []Coord) (*Tensor, error) {
	t := New(i, j, k)
	cs := make([]Coord, len(coords))
	copy(cs, coords)
	for _, c := range cs {
		if !t.inRange(c) {
			return nil, fmt.Errorf("tensor: coordinate (%d,%d,%d) outside %dx%dx%d", c.I, c.J, c.K, i, j, k)
		}
	}
	sortCoords(cs)
	t.coords = dedup(cs)
	return t, nil
}

// MustFromCoords is FromCoords for known-good inputs; it panics on error.
func MustFromCoords(i, j, k int, coords []Coord) *Tensor {
	t, err := FromCoords(i, j, k, coords)
	if err != nil {
		panic(err)
	}
	return t
}

func (t *Tensor) inRange(c Coord) bool {
	return c.I >= 0 && c.I < t.dimI && c.J >= 0 && c.J < t.dimJ && c.K >= 0 && c.K < t.dimK
}

func sortCoords(cs []Coord) {
	sort.Slice(cs, func(a, b int) bool {
		if cs[a].I != cs[b].I {
			return cs[a].I < cs[b].I
		}
		if cs[a].J != cs[b].J {
			return cs[a].J < cs[b].J
		}
		return cs[a].K < cs[b].K
	})
}

func dedup(cs []Coord) []Coord {
	out := cs[:0]
	for i, c := range cs {
		if i == 0 || c != cs[i-1] {
			out = append(out, c)
		}
	}
	return out
}

// Dims returns the mode dimensions (I, J, K).
func (t *Tensor) Dims() (i, j, k int) { return t.dimI, t.dimJ, t.dimK }

// NNZ returns the number of nonzero entries |X|.
func (t *Tensor) NNZ() int { return len(t.coords) }

// Density returns |X| / (I·J·K).
func (t *Tensor) Density() float64 {
	cells := float64(t.dimI) * float64(t.dimJ) * float64(t.dimK)
	if cells == 0 {
		return 0
	}
	return float64(len(t.coords)) / cells
}

// Coords returns the sorted nonzero coordinates. The slice is shared;
// callers must not modify it.
func (t *Tensor) Coords() []Coord { return t.coords }

// Get reports whether entry (i, j, k) is set.
func (t *Tensor) Get(i, j, k int) bool {
	c := Coord{i, j, k}
	n := sort.Search(len(t.coords), func(x int) bool { return !coordLess(t.coords[x], c) })
	return n < len(t.coords) && t.coords[n] == c
}

func coordLess(a, b Coord) bool {
	if a.I != b.I {
		return a.I < b.I
	}
	if a.J != b.J {
		return a.J < b.J
	}
	return a.K < b.K
}

// Equal reports whether two tensors have identical dimensions and entries.
func (t *Tensor) Equal(o *Tensor) bool {
	if t.dimI != o.dimI || t.dimJ != o.dimJ || t.dimK != o.dimK || len(t.coords) != len(o.coords) {
		return false
	}
	for i, c := range t.coords {
		if o.coords[i] != c {
			return false
		}
	}
	return true
}

// XorCount returns |X ⊕ Y|, the number of cells where the tensors differ.
// Dimensions must match.
func (t *Tensor) XorCount(o *Tensor) int {
	if t.dimI != o.dimI || t.dimJ != o.dimJ || t.dimK != o.dimK {
		panic("tensor: XorCount dimension mismatch")
	}
	// Merge the two sorted coordinate lists.
	diff := 0
	a, b := t.coords, o.coords
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0] == b[0]:
			a, b = a[1:], b[1:]
		case coordLess(a[0], b[0]):
			diff++
			a = a[1:]
		default:
			diff++
			b = b[1:]
		}
	}
	return diff + len(a) + len(b)
}

// Mode identifies a matricization mode (1, 2 or 3 in the paper's notation).
type Mode int

// The three matricization modes of a three-way tensor.
const (
	Mode1 Mode = 1 // rows indexed by i, columns by j + k·J
	Mode2 Mode = 2 // rows indexed by j, columns by i + k·I
	Mode3 Mode = 3 // rows indexed by k, columns by i + j·I
)

// Unfolded is the mode-n matricization X₍ₙ₎ of a tensor in compressed
// sparse row form: for each row, a sorted list of nonzero column indices.
type Unfolded struct {
	NumRows, NumCols int
	// BlockSize is the width of one pointwise vector-matrix (PVM) product
	// along the columns: column c belongs to PVM block c / BlockSize, at
	// inner index c % BlockSize. For mode 1 this is J (the row count of the
	// second Khatri–Rao operand B in X₍₁₎ ≈ A ∘ (C ⊙ B)ᵀ).
	BlockSize int
	// NumBlocks is NumCols / BlockSize, the row count of the first
	// Khatri–Rao operand (C above).
	NumBlocks int
	rowPtr    []int
	// colIdx holds the column indices as int32: unfolding and partitioning
	// are memory-bandwidth bound, and half-width columns halve that traffic.
	// Unfold panics if the column space exceeds int32.
	colIdx []int32
	// bucketOff delimits the (row, PVM block) buckets of colIdx: bucket
	// b = row·NumBlocks + block spans colIdx[bucketOff[b]:bucketOff[b+1]].
	// Retained from the counting-sort construction (nil when the sort fell
	// back to per-row sorting), it hands partition.Build every block-row
	// segment by pure arithmetic instead of a merge over the nonzeros.
	bucketOff []int32
}

// Unfold returns the mode-n matricization of the tensor, following the
// 0-based version of Equation 1:
//
//	mode 1: x_ijk ↦ [X₍₁₎]_{i, j+k·J}   (PVM block k, inner index j)
//	mode 2: x_ijk ↦ [X₍₂₎]_{j, i+k·I}   (PVM block k, inner index i)
//	mode 3: x_ijk ↦ [X₍₃₎]_{k, i+j·I}   (PVM block j, inner index i)
func (t *Tensor) Unfold(mode Mode) *Unfolded {
	var nRows, block, nBlocks int
	switch mode {
	case Mode1:
		nRows, block, nBlocks = t.dimI, t.dimJ, t.dimK
	case Mode2:
		nRows, block, nBlocks = t.dimJ, t.dimI, t.dimK
	case Mode3:
		nRows, block, nBlocks = t.dimK, t.dimI, t.dimJ
	default:
		panic(fmt.Sprintf("tensor: invalid mode %d", mode))
	}
	if int64(block)*int64(nBlocks) > math.MaxInt32 {
		panic(fmt.Sprintf("tensor: mode-%d unfolding has %d columns, beyond the int32 column space", mode, block*nBlocks))
	}
	u := &Unfolded{
		NumRows:   nRows,
		NumCols:   block * nBlocks,
		BlockSize: block,
		NumBlocks: nBlocks,
		rowPtr:    make([]int, nRows+1),
		colIdx:    slab.Int32s(len(t.coords)),
	}
	// The coordinate list is sorted by (I, J, K), which for every mode
	// leaves the inner column index ascending within a fixed (row, PVM
	// block) pair. A stable counting sort by the composite key
	// row·NumBlocks + block therefore emits each row's columns already
	// sorted — no comparison sort at all. The bucket array is sized with
	// two leading zero slots so the fill cursors (bucket b advances
	// off[b+1]) end the pass holding exactly the start-offset table: no
	// copy. Fall back to per-row sorting when the bucket array would
	// dwarf the nonzeros.
	if nb := nBlocks; nRows > 0 && nb > 0 && nRows <= (4*len(t.coords)+1024)/nb {
		n := nRows * nb
		off := slab.Int32sZeroed(n + 2)
		for _, c := range t.coords {
			off[rowOf(c, mode)*nb+blockOf(c, mode)+2]++
		}
		for b := 2; b <= n+1; b++ {
			off[b] += off[b-1]
		}
		for _, c := range t.coords {
			b := rowOf(c, mode)*nb + blockOf(c, mode) + 1
			u.colIdx[off[b]] = int32(colOf(c, mode, block))
			off[b]++
		}
		u.bucketOff = off[:n+1]
		for r := 0; r < nRows; r++ {
			u.rowPtr[r] = int(off[r*nb])
		}
		u.rowPtr[nRows] = len(t.coords)
		return u
	}
	// Counting sort by row, then fill columns and sort within each row.
	for _, c := range t.coords {
		u.rowPtr[rowOf(c, mode)+1]++
	}
	for r := 0; r < nRows; r++ {
		u.rowPtr[r+1] += u.rowPtr[r]
	}
	next := make([]int, nRows)
	copy(next, u.rowPtr[:nRows])
	for _, c := range t.coords {
		r := rowOf(c, mode)
		u.colIdx[next[r]] = int32(colOf(c, mode, block))
		next[r]++
	}
	for r := 0; r < nRows; r++ {
		row := u.colIdx[u.rowPtr[r]:u.rowPtr[r+1]]
		slices.Sort(row)
	}
	return u
}

// UnfoldAll returns all three matricizations at once. When every mode is
// eligible for the counting sort it fuses the three builds into a single
// count pass and a single fill pass over the coordinate list — one third of
// the coordinate traffic of three Unfold calls, which matters because the
// unfold step is pure memory bandwidth. Falls back to per-mode Unfold
// otherwise.
func (t *Tensor) UnfoldAll() [3]*Unfolded {
	nnz := len(t.coords)
	dimI, dimJ, dimK := t.dimI, t.dimJ, t.dimK
	eligible := func(nRows, nb int) bool {
		return nRows > 0 && nb > 0 && nRows <= (4*nnz+1024)/nb
	}
	fits32 := func(a, b int) bool { return int64(a)*int64(b) <= math.MaxInt32 }
	if !eligible(dimI, dimK) || !eligible(dimJ, dimK) || !eligible(dimK, dimJ) ||
		!fits32(dimI, dimJ) || !fits32(dimI, dimK) || !fits32(dimJ, dimK) {
		return [3]*Unfolded{t.Unfold(Mode1), t.Unfold(Mode2), t.Unfold(Mode3)}
	}
	skeleton := func(nRows, block, nBlocks int) (*Unfolded, []int32) {
		u := &Unfolded{
			NumRows:   nRows,
			NumCols:   block * nBlocks,
			BlockSize: block,
			NumBlocks: nBlocks,
			rowPtr:    make([]int, nRows+1),
			colIdx:    slab.Int32s(nnz),
		}
		// Two leading zero slots, as in Unfold: the fill cursors end the
		// pass holding the start-offset table in place.
		return u, slab.Int32sZeroed(nRows*nBlocks + 2)
	}
	u1, off1 := skeleton(dimI, dimJ, dimK)
	u2, off2 := skeleton(dimJ, dimI, dimK)
	u3, off3 := skeleton(dimK, dimI, dimJ)
	for _, c := range t.coords {
		off1[c.I*dimK+c.K+2]++
		off2[c.J*dimK+c.K+2]++
		off3[c.K*dimJ+c.J+2]++
	}
	prefix := func(off []int32) {
		for b := 2; b < len(off); b++ {
			off[b] += off[b-1]
		}
	}
	prefix(off1)
	prefix(off2)
	prefix(off3)
	c1, c2, c3 := u1.colIdx, u2.colIdx, u3.colIdx
	for _, c := range t.coords {
		b := c.I*dimK + c.K + 1
		c1[off1[b]] = int32(c.J + c.K*dimJ)
		off1[b]++
		b = c.J*dimK + c.K + 1
		c2[off2[b]] = int32(c.I + c.K*dimI)
		off2[b]++
		b = c.K*dimJ + c.J + 1
		c3[off3[b]] = int32(c.I + c.J*dimI)
		off3[b]++
	}
	finish := func(u *Unfolded, off []int32) {
		n := u.NumRows * u.NumBlocks
		u.bucketOff = off[:n+1]
		for r := 0; r < u.NumRows; r++ {
			u.rowPtr[r] = int(off[r*u.NumBlocks])
		}
		u.rowPtr[u.NumRows] = nnz
	}
	finish(u1, off1)
	finish(u2, off2)
	finish(u3, off3)
	return [3]*Unfolded{u1, u2, u3}
}

// blockOf returns the PVM block index of a coordinate under the given
// mode: the K (modes 1, 2) or J (mode 3) index.
func blockOf(c Coord, mode Mode) int {
	if mode == Mode3 {
		return c.J
	}
	return c.K
}

func rowOf(c Coord, mode Mode) int {
	switch mode {
	case Mode1:
		return c.I
	case Mode2:
		return c.J
	default:
		return c.K
	}
}

func colOf(c Coord, mode Mode, block int) int {
	switch mode {
	case Mode1:
		return c.J + c.K*block
	case Mode2:
		return c.I + c.K*block
	default:
		return c.I + c.J*block
	}
}

// NNZ returns the number of nonzero entries.
func (u *Unfolded) NNZ() int { return len(u.colIdx) }

// Row returns the sorted nonzero column indices of the given row. The
// slice is shared; callers must not modify it.
func (u *Unfolded) Row(r int) []int32 {
	return u.colIdx[u.rowPtr[r]:u.rowPtr[r+1]]
}

// BlockRow returns the sorted nonzero column indices of row r that lie
// inside PVM block p (global columns [p·BlockSize, (p+1)·BlockSize)). With
// the counting-sort bucket table retained the segment is located by pure
// arithmetic; otherwise it falls back to binary searches within the row.
// The slice is shared; callers must not modify it.
func (u *Unfolded) BlockRow(r, p int) []int32 {
	if u.bucketOff != nil {
		b := r*u.NumBlocks + p
		return u.colIdx[u.bucketOff[b]:u.bucketOff[b+1]]
	}
	return u.RowInRange(r, p*u.BlockSize, (p+1)*u.BlockSize)
}

// BucketOffs exposes the (row, PVM block) bucket table: bucket
// b = row·NumBlocks + block spans Bucket(BucketOffs()[b], BucketOffs()[b+1]).
// Nil when the unfolding was built by per-row sorting; partition.Build's
// hot loops index it directly and fall back to BlockRow otherwise.
func (u *Unfolded) BucketOffs() []int32 { return u.bucketOff }

// Bucket returns the colIdx range [lo, hi) addressed by BucketOffs. The
// slice is shared; callers must not modify it.
func (u *Unfolded) Bucket(lo, hi int32) []int32 { return u.colIdx[lo:hi] }

// Recycle returns the unfolding's large arrays to the slab pool and
// poisons the unfolding against further use. Callers that build a
// partitioning and keep nothing else (the decomposition engine, the TCP
// worker) recycle the unfolding once partition.Build has copied every
// nonzero; all other users simply let the garbage collector take it.
func (u *Unfolded) Recycle() {
	slab.PutInt32s(u.colIdx)
	slab.PutInt32s(u.bucketOff)
	u.colIdx, u.bucketOff, u.rowPtr = nil, nil, nil
}

// RowInRange returns the nonzero column indices of row r in [lo, hi).
// The slice is shared; callers must not modify it.
func (u *Unfolded) RowInRange(r, lo, hi int) []int32 {
	row := u.Row(r)
	a := sort.Search(len(row), func(i int) bool { return int(row[i]) >= lo })
	b := a + sort.Search(len(row)-a, func(i int) bool { return int(row[a+i]) >= hi })
	return row[a:b]
}

// Fold is the inverse of Unfold: it rebuilds the tensor from a mode-n
// matricization given the original dimensions.
func Fold(u *Unfolded, mode Mode, i, j, k int) *Tensor {
	t := New(i, j, k)
	coords := make([]Coord, 0, u.NNZ())
	for r := 0; r < u.NumRows; r++ {
		for _, c32 := range u.Row(r) {
			c := int(c32)
			inner := c % u.BlockSize
			blk := c / u.BlockSize
			var co Coord
			switch mode {
			case Mode1:
				co = Coord{r, inner, blk}
			case Mode2:
				co = Coord{inner, r, blk}
			case Mode3:
				co = Coord{inner, blk, r}
			default:
				panic(fmt.Sprintf("tensor: invalid mode %d", mode))
			}
			coords = append(coords, co)
		}
	}
	sortCoords(coords)
	t.coords = dedup(coords)
	return t
}

// Reconstruct materializes the Boolean CP reconstruction
// ⋁_r a_:r ∘ b_:r ∘ c_:r from factor matrices A (I×R), B (J×R), C (K×R).
// Intended for small tensors and tests; use ReconstructError to score
// factors against a tensor without materializing the reconstruction's
// coordinate list.
func Reconstruct(a, b, c *boolmat.FactorMatrix) *Tensor {
	r := a.Rank()
	if b.Rank() != r || c.Rank() != r {
		panic("tensor: Reconstruct rank mismatch")
	}
	seen := make(map[Coord]struct{})
	for q := 0; q < r; q++ {
		ai := a.Column(q).Indices()
		bi := b.Column(q).Indices()
		ci := c.Column(q).Indices()
		for _, i := range ai {
			for _, j := range bi {
				for _, k := range ci {
					seen[Coord{i, j, k}] = struct{}{}
				}
			}
		}
	}
	coords := make([]Coord, 0, len(seen))
	for c := range seen {
		coords = append(coords, c)
	}
	sortCoords(coords)
	return &Tensor{dimI: a.Rows(), dimJ: b.Rows(), dimK: c.Rows(), coords: coords}
}

// ReconstructError returns |X ⊕ ⋁_r a_:r ∘ b_:r ∘ c_:r|, the Boolean CP
// objective of Definition 4, computed in streaming fashion over mode-1
// rows: the reconstruction row for index i is the OR over the set bits r
// of a_i: of the Kronecker rows c_:r ⊗ b_:r, compared against the sparse
// tensor row without materializing the reconstructed tensor.
func ReconstructError(x *Tensor, a, b, c *boolmat.FactorMatrix) int64 {
	r := a.Rank()
	if b.Rank() != r || c.Rank() != r {
		panic("tensor: ReconstructError rank mismatch")
	}
	if a.Rows() != x.dimI || b.Rows() != x.dimJ || c.Rows() != x.dimK {
		panic("tensor: ReconstructError dimension mismatch")
	}
	u := x.Unfold(Mode1)
	// kron[q] = c_:q ⊗ b_:q as a JK-bit vector (column q of C ⊙ B).
	kron := make([]*bitvec.BitVec, r)
	for q := 0; q < r; q++ {
		v := bitvec.New(x.dimJ * x.dimK)
		bIdx := b.Column(q).Indices()
		c.Column(q).Range(func(k int) {
			base := k * x.dimJ
			for _, j := range bIdx {
				v.Set(base + j)
			}
		})
		kron[q] = v
	}
	row := bitvec.New(x.dimJ * x.dimK)
	var err int64
	for i := 0; i < x.dimI; i++ {
		row.Zero()
		for mask := a.RowMask(i); mask != 0; mask &= mask - 1 {
			row.Or(kron[bits.TrailingZeros64(mask)])
		}
		// |x_row ⊕ rec_row| = nnz(x_row) + |rec_row| − 2·overlap.
		overlap := 0
		for _, col := range u.Row(i) {
			if row.Get(int(col)) {
				overlap++
			}
		}
		err += int64(len(u.Row(i)) + row.OnesCount() - 2*overlap)
	}
	return err
}

// WriteTo writes the tensor in the text interchange format: a header line
// "I J K" followed by one "i j k" line per nonzero.
func (t *Tensor) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	c, err := fmt.Fprintf(bw, "%d %d %d\n", t.dimI, t.dimJ, t.dimK)
	n += int64(c)
	if err != nil {
		return n, err
	}
	for _, co := range t.coords {
		c, err := fmt.Fprintf(bw, "%d %d %d\n", co.I, co.J, co.K)
		n += int64(c)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ErrEmpty reports input with no content at all, in either format.
var ErrEmpty = errors.New("tensor: empty input")

// ReadFrom parses the text interchange format written by WriteTo.
func ReadFrom(r io.Reader) (*Tensor, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, ErrEmpty
	}
	dimI, dimJ, dimK, err := parseTriple(sc.Text())
	if err != nil {
		return nil, fmt.Errorf("tensor: header: %w", err)
	}
	var coords []Coord
	line := 1
	for sc.Scan() {
		line++
		txt := sc.Text()
		if txt == "" {
			continue
		}
		i, j, k, err := parseTriple(txt)
		if err != nil {
			return nil, fmt.Errorf("tensor: line %d: %w", line, err)
		}
		coords = append(coords, Coord{i, j, k})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return FromCoords(dimI, dimJ, dimK, coords)
}

// WriteFile writes the tensor to a file in the text interchange format.
func (t *Tensor) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := t.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile reads a tensor from a file in the text interchange format.
func ReadFile(path string) (*Tensor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadFrom(f)
}

func parseTriple(s string) (a, b, c int, err error) {
	fields := splitFields(s)
	if len(fields) != 3 {
		return 0, 0, 0, fmt.Errorf("expected 3 fields, got %d", len(fields))
	}
	if a, err = strconv.Atoi(fields[0]); err != nil {
		return
	}
	if b, err = strconv.Atoi(fields[1]); err != nil {
		return
	}
	c, err = strconv.Atoi(fields[2])
	return
}

func splitFields(s string) []string {
	var out []string
	start := -1
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ' ' || s[i] == '\t' {
			if start >= 0 {
				out = append(out, s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	return out
}
