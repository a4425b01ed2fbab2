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
// sparse form: for each (row, PVM block) pair a bucket of sorted nonzero
// column indices, the buckets of one row adjacent, so a row is a sorted
// list too.
//
// Memory: the bucket table is NumRows × NumBlocks int32 beside one int32
// per nonzero — the same order as the row-pointer arena partition.Build
// allocates from it (blocks × (rows+1) int32), so an unfolding never needs
// more than the partitioning the engine is about to build anyway. Of the
// callers that stop at the unfolding, bcpals densifies it (rows × columns
// bits, larger) and tucker's evaluator runs after an engine run on the same
// tensor.
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
	// colIdx holds the column indices as int32: unfolding and partitioning
	// are memory-bandwidth bound, and half-width columns halve that traffic.
	// Unfold panics if the column space exceeds int32.
	colIdx []int32
	// bucketOff delimits the (row, PVM block) buckets of colIdx: bucket
	// b = row·NumBlocks + block spans colIdx[bucketOff[b]:bucketOff[b+1]].
	// It hands partition.Build every block-row segment by pure arithmetic
	// instead of a search over the nonzeros.
	bucketOff []int32
}

// Unfold returns the mode-n matricization of the tensor, following the
// 0-based version of Equation 1:
//
//	mode 1: x_ijk ↦ [X₍₁₎]_{i, j+k·J}   (PVM block k, inner index j)
//	mode 2: x_ijk ↦ [X₍₂₎]_{j, i+k·I}   (PVM block k, inner index i)
//	mode 3: x_ijk ↦ [X₍₃₎]_{k, i+j·I}   (PVM block j, inner index i)
func (t *Tensor) Unfold(mode Mode) *Unfolded {
	if mode < Mode1 || mode > Mode3 {
		panic(fmt.Sprintf("tensor: invalid mode %d", mode))
	}
	return t.matricize(mode)[mode-1]
}

// UnfoldAll returns all three matricizations, the set-up of Algorithm 2
// lines 1-3.
func (t *Tensor) UnfoldAll() [3]*Unfolded {
	return t.matricize(Mode1, Mode2, Mode3)
}

// matricize builds the unfoldings of the given modes, each at index mode−1
// of the result.
//
// The coordinate list is sorted by (I, J, K), which for every mode leaves
// the inner column index ascending within a fixed (row, PVM block) pair. A
// stable counting sort by the bucket row·NumBlocks + block therefore emits
// each bucket's — and, a row's buckets being adjacent and ascending in
// block, each row's — columns already sorted: no comparison sort at all.
// All wanted modes share one count pass and one fill pass over the
// coordinate list: the step is pure memory traffic and the list is the one
// stream every mode reads.
func (t *Tensor) matricize(modes ...Mode) (us [3]*Unfolded) {
	dimI, dimJ, dimK := t.dimI, t.dimJ, t.dimK
	shape := [3][3]int{{dimI, dimJ, dimK}, {dimJ, dimI, dimK}, {dimK, dimI, dimJ}}
	var off, col [3][]int32
	for _, mode := range modes {
		m := mode - 1
		nRows, block, nBlocks := shape[m][0], shape[m][1], shape[m][2]
		if int64(block)*int64(nBlocks) > math.MaxInt32 {
			panic(fmt.Sprintf("tensor: mode-%d unfolding has %d columns, beyond the int32 column space", mode, block*nBlocks))
		}
		// Two leading zero slots: the fill cursors (bucket b advances
		// off[b+1]) end the pass holding exactly the start-offset table.
		n := nRows * nBlocks
		off[m], col[m] = slab.Int32sZeroed(n+2), slab.Int32s(len(t.coords))
		us[m] = &Unfolded{
			NumRows:   nRows,
			NumCols:   block * nBlocks,
			BlockSize: block,
			NumBlocks: nBlocks,
			colIdx:    col[m],
			bucketOff: off[m][:n+1],
		}
	}
	// A mode not asked for has a nil table, and its statement is skipped.
	off1, off2, off3 := off[0], off[1], off[2]
	for _, c := range t.coords {
		if off1 != nil {
			off1[c.I*dimK+c.K+2]++
		}
		if off2 != nil {
			off2[c.J*dimK+c.K+2]++
		}
		if off3 != nil {
			off3[c.K*dimJ+c.J+2]++
		}
	}
	for _, o := range off {
		for b := 2; b < len(o); b++ {
			o[b] += o[b-1]
		}
	}
	col1, col2, col3 := col[0], col[1], col[2]
	for _, c := range t.coords {
		if off1 != nil {
			b := c.I*dimK + c.K + 1
			col1[off1[b]] = int32(c.J + c.K*dimJ)
			off1[b]++
		}
		if off2 != nil {
			b := c.J*dimK + c.K + 1
			col2[off2[b]] = int32(c.I + c.K*dimI)
			off2[b]++
		}
		if off3 != nil {
			b := c.K*dimJ + c.J + 1
			col3[off3[b]] = int32(c.I + c.J*dimI)
			off3[b]++
		}
	}
	return us
}

// NNZ returns the number of nonzero entries.
func (u *Unfolded) NNZ() int { return len(u.colIdx) }

// Row returns the sorted nonzero column indices of the given row. The
// slice is shared; callers must not modify it.
func (u *Unfolded) Row(r int) []int32 {
	return u.colIdx[u.bucketOff[r*u.NumBlocks]:u.bucketOff[(r+1)*u.NumBlocks]]
}

// BlockRow returns the sorted nonzero column indices of row r that lie
// inside PVM block p (global columns [p·BlockSize, (p+1)·BlockSize)). The
// slice is shared; callers must not modify it.
func (u *Unfolded) BlockRow(r, p int) []int32 {
	b := r*u.NumBlocks + p
	return u.colIdx[u.bucketOff[b]:u.bucketOff[b+1]]
}

// Recycle returns the unfolding's large arrays to the slab pool and
// poisons the unfolding against further use. Callers that build a
// partitioning and keep nothing else (the decomposition engine, the TCP
// worker) recycle the unfolding once partition.Build has copied every
// nonzero; all other users simply let the garbage collector take it.
func (u *Unfolded) Recycle() {
	slab.PutInt32s(u.colIdx)
	slab.PutInt32s(u.bucketOff)
	u.colIdx, u.bucketOff = nil, nil
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
// tensor row without materializing the reconstructed tensor. The
// coordinate list is sorted by I first, so row i's nonzeros are its next
// run: no unfolding is built.
func ReconstructError(x *Tensor, a, b, c *boolmat.FactorMatrix) int64 {
	r := a.Rank()
	if b.Rank() != r || c.Rank() != r {
		panic("tensor: ReconstructError rank mismatch")
	}
	if a.Rows() != x.dimI || b.Rows() != x.dimJ || c.Rows() != x.dimK {
		panic("tensor: ReconstructError dimension mismatch")
	}
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
	rest := x.coords
	var err int64
	for i := 0; i < x.dimI; i++ {
		row.Zero()
		for mask := a.RowMask(i); mask != 0; mask &= mask - 1 {
			row.Or(kron[bits.TrailingZeros64(mask)])
		}
		// |x_row ⊕ rec_row| = nnz(x_row) + |rec_row| − 2·overlap.
		n, overlap := 0, 0
		for ; n < len(rest) && rest[n].I == i; n++ {
			if row.Get(rest[n].J + rest[n].K*x.dimJ) {
				overlap++
			}
		}
		rest = rest[n:]
		err += int64(n + row.OnesCount() - 2*overlap)
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
