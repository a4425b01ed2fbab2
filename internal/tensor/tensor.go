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
	Mode1 Mode = 1
	Mode2 Mode = 2
	Mode3 Mode = 3
)

// Place is the one statement of Equation 1 (0-based): it returns the row of
// the mode's unfolding that the nonzero at c lies in, its PVM product and
// its inner index in the product; its column is pvm·width + inner, for
// products width wide. Place of the dims gives the unfolding's shape (rows,
// products, width), and Place of the axes (0, 1, 2) the axis of each (Axes).
//
//	mode 1: x_ijk ↦ [X₍₁₎]_{i, j+k·J}   (PVM product k, inner index j)
//	mode 2: x_ijk ↦ [X₍₂₎]_{j, i+k·I}   (PVM product k, inner index i)
//	mode 3: x_ijk ↦ [X₍₃₎]_{k, i+j·I}   (PVM product j, inner index i)
func (m Mode) Place(c Coord) (row, pvm, inner int) {
	switch m {
	case Mode1:
		return c.I, c.K, c.J
	case Mode2:
		return c.J, c.K, c.I
	case Mode3:
		return c.K, c.J, c.I
	}
	panic("tensor: invalid mode")
}

// Axes returns the axes (0 for I, 1 for J, 2 for K) that index the mode's
// rows, PVM products and inner indices. They are the factor roles of the
// mode's update X₍ₙ₎ ≈ upd ∘ (pvm ⊙ cached)ᵀ: upd is the row axis's factor,
// pvm the product axis's and cached the inner axis's.
func (m Mode) Axes() (row, pvm, inner int) { return m.Place(Coord{0, 1, 2}) }

// Columns returns the column count of the mode's unfolding of an i×j×k
// tensor, or an error when the count is beyond the int32 column space that
// unfoldings and partitionings index: the one column guard.
func (m Mode) Columns(i, j, k int) (int, error) {
	_, products, width := m.Place(Coord{i, j, k})
	if width > 0 && products > math.MaxInt32/width {
		return 0, fmt.Errorf("tensor: mode-%d unfolding of %dx%dx%d has %d·%d columns, beyond the int32 column space", m, i, j, k, products, width)
	}
	return products * width, nil
}

// Unfolded is the mode-n matricization X₍ₙ₎ of a tensor in compressed
// sparse form: each row's sorted nonzero column indices. The decomposition
// engine does not build it — each machine partitions its mode straight from
// the coordinate list (partition.FromTensor) — so it serves the callers
// that want whole rows: bcpals densifies it, tucker's evaluator walks it.
// partition.Build reads only the tensor and mode it was cut from (Source).
// Memory: NumRows × NumBlocks int32 of bucket offsets beside one int32 per
// nonzero.
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
	// bucketOff is the counting sort's table: bucket b = row·NumBlocks +
	// block spans colIdx[bucketOff[b]:bucketOff[b+1]], so Row is a slice of
	// colIdx by pure arithmetic instead of a search over the nonzeros.
	bucketOff []int32
	// src and mode are what the unfolding was cut from (Source).
	src  *Tensor
	mode Mode
}

// Unfold returns the mode-n matricization of the tensor, each nonzero in
// the cell Place gives it. It panics on an unfolding whose columns overflow
// int32 (Columns).
//
// The coordinate list is sorted by (I, J, K), which for every mode leaves
// the inner column index ascending within a fixed (row, PVM block) pair. A
// stable counting sort by the bucket row·NumBlocks + block therefore emits
// each bucket's — and, a row's buckets being adjacent and ascending in
// block, each row's — columns already sorted: no comparison sort at all.
func (t *Tensor) Unfold(mode Mode) *Unfolded {
	if mode < Mode1 || mode > Mode3 {
		panic(fmt.Sprintf("tensor: invalid mode %d", mode))
	}
	cols, err := mode.Columns(t.dimI, t.dimJ, t.dimK)
	if err != nil {
		panic(err)
	}
	rows, products, width := mode.Place(Coord{t.dimI, t.dimJ, t.dimK})
	// Two leading zero slots: the fill cursors (bucket b advances off[b+1])
	// end the pass holding exactly the start-offset table.
	n := rows * products
	off, col := slab.Int32sZeroed(n+2), slab.Int32s(len(t.coords))
	for _, c := range t.coords {
		row, pvm, _ := mode.Place(c)
		off[row*products+pvm+2]++
	}
	for b := 2; b < len(off); b++ {
		off[b] += off[b-1]
	}
	for _, c := range t.coords {
		row, pvm, inner := mode.Place(c)
		b := row*products + pvm + 1
		col[off[b]] = int32(inner + pvm*width)
		off[b]++
	}
	return &Unfolded{NumRows: rows, NumCols: cols, BlockSize: width, NumBlocks: products,
		colIdx: col, bucketOff: off[:n+1], src: t, mode: mode}
}

// UnfoldAll returns all three matricizations, the set-up of Algorithm 2
// lines 1-3.
func (t *Tensor) UnfoldAll() [3]*Unfolded {
	return [3]*Unfolded{t.Unfold(Mode1), t.Unfold(Mode2), t.Unfold(Mode3)}
}

// NNZ returns the number of nonzero entries.
func (u *Unfolded) NNZ() int { return len(u.colIdx) }

// Row returns the sorted nonzero column indices of the given row. The
// slice is shared; callers must not modify it.
func (u *Unfolded) Row(r int) []int32 {
	return u.colIdx[u.bucketOff[r*u.NumBlocks]:u.bucketOff[(r+1)*u.NumBlocks]]
}

// Source returns the tensor and mode the unfolding was cut from.
func (u *Unfolded) Source() (*Tensor, Mode) { return u.src, u.mode }

// Recycle returns the unfolding's large arrays to the slab pool and
// poisons the unfolding against further use. A caller with a clear end of
// life for it recycles it; all others let the garbage collector take it.
func (u *Unfolded) Recycle() {
	slab.PutInt32s(u.colIdx)
	slab.PutInt32s(u.bucketOff)
	u.colIdx, u.bucketOff, u.src = nil, nil, nil
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
			if _, pvm, inner := Mode1.Place(rest[n]); row.Get(inner + pvm*x.dimJ) {
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
