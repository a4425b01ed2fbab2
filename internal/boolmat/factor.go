// Package boolmat implements Boolean matrices and the Boolean linear
// algebra used by Boolean CP decomposition: the Boolean matrix product,
// Khatri–Rao product, Kronecker product, and the pointwise vector-matrix
// product of the paper's Section II-A.
//
// Two representations are provided:
//
//   - FactorMatrix: an n×R binary matrix with R ≤ 64, storing each row as a
//     single uint64 mask. Factor matrices A, B, C of a rank-R Boolean CP
//     decomposition are FactorMatrices; the uint64 row masks make the cache
//     key a_i: ∧ c_k: of the paper's Section III-C a single AND instruction
//     (the "bitwise AND operation for efficiency" of Section III-F).
//
//   - Matrix: a general n×m binary matrix with bit-packed rows, used for
//     wide intermediates such as (C ⊙ B)ᵀ in reference computations and
//     tests. The scalable DBTF path never materializes such intermediates.
package boolmat

import (
	"fmt"
	"math/bits"
	"math/rand"
	"strings"

	"dbtf/internal/bitvec"
)

// MaxRank is the largest rank a FactorMatrix supports. Rows are stored as
// uint64 masks; the paper evaluates ranks up to 60, well within this limit.
const MaxRank = 64

// FactorMatrix is an n×R binary matrix, R ≤ MaxRank, with rows stored as
// uint64 bit masks (bit r of row i is the entry at row i, column r).
type FactorMatrix struct {
	rows    []uint64
	r       int
	version uint64
}

// NewFactor returns a zeroed n×r factor matrix.
func NewFactor(n, r int) *FactorMatrix {
	if r < 0 || r > MaxRank {
		panic(fmt.Sprintf("boolmat: rank %d out of range [0,%d]", r, MaxRank))
	}
	if n < 0 {
		panic("boolmat: negative row count")
	}
	return &FactorMatrix{rows: make([]uint64, n), r: r}
}

// RandomFactor returns an n×r factor matrix whose entries are 1
// independently with probability density, drawn from rng.
func RandomFactor(rng *rand.Rand, n, r int, density float64) *FactorMatrix {
	m := NewFactor(n, r)
	for i := range m.rows {
		var mask uint64
		for c := 0; c < r; c++ {
			if rng.Float64() < density {
				mask |= 1 << uint(c)
			}
		}
		m.rows[i] = mask
	}
	return m
}

// Rows returns the number of rows n.
func (m *FactorMatrix) Rows() int { return len(m.rows) }

// Rank returns the number of columns R.
func (m *FactorMatrix) Rank() int { return m.r }

// Get reports whether entry (i, c) is set.
func (m *FactorMatrix) Get(i, c int) bool {
	m.checkCol(c)
	return m.rows[i]&(1<<uint(c)) != 0
}

// Set assigns entry (i, c).
func (m *FactorMatrix) Set(i, c int, v bool) {
	m.checkCol(c)
	row := m.rows[i] &^ (1 << uint(c))
	if v {
		row |= 1 << uint(c)
	}
	m.store(i, row)
}

// store writes row i, advancing the version only when the row changes: a
// column commit rewrites every entry of its column, and one that flips
// nothing must leave the caches over the matrix valid.
func (m *FactorMatrix) store(i int, row uint64) {
	if m.rows[i] != row {
		m.rows[i] = row
		m.version++
	}
}

// Version returns a counter that advances on every write that changes the
// matrix. Derived structures (row-summation caches) key their validity on
// the pair (matrix pointer, version): equal pairs guarantee the derivation
// is still current. Readers and the single writer must already be
// externally synchronized, as for every other method.
func (m *FactorMatrix) Version() uint64 { return m.version }

func (m *FactorMatrix) checkCol(c int) {
	if c < 0 || c >= m.r {
		panic(fmt.Sprintf("boolmat: column %d out of range [0,%d)", c, m.r))
	}
}

// RowMask returns row i as a bit mask (bit c = entry (i, c)).
func (m *FactorMatrix) RowMask(i int) uint64 { return m.rows[i] }

// SetRowMask overwrites row i with the given mask. Bits at or above Rank
// must be zero.
func (m *FactorMatrix) SetRowMask(i int, mask uint64) {
	if m.r < MaxRank && mask>>uint(m.r) != 0 {
		panic(fmt.Sprintf("boolmat: mask %#x has bits beyond rank %d", mask, m.r))
	}
	m.store(i, mask)
}

// Column materializes column c as a bit vector of length Rows().
// Columns of B are the unit of caching in the paper's Section III-C.
func (m *FactorMatrix) Column(c int) *bitvec.BitVec {
	m.checkCol(c)
	v := bitvec.New(len(m.rows))
	bit := uint64(1) << uint(c)
	for i, row := range m.rows {
		if row&bit != 0 {
			v.Set(i)
		}
	}
	return v
}

// Columns materializes all R columns. Column r of the result is the r-th
// column of m as a length-n bit vector.
func (m *FactorMatrix) Columns() []*bitvec.BitVec {
	cols := make([]*bitvec.BitVec, m.r)
	for c := 0; c < m.r; c++ {
		cols[c] = m.Column(c)
	}
	return cols
}

// OnesCount returns the number of set entries.
func (m *FactorMatrix) OnesCount() int {
	n := 0
	for _, row := range m.rows {
		n += bits.OnesCount64(row)
	}
	return n
}

// Density returns the fraction of set entries.
func (m *FactorMatrix) Density() float64 {
	if len(m.rows) == 0 || m.r == 0 {
		return 0
	}
	return float64(m.OnesCount()) / float64(len(m.rows)*m.r)
}

// Clone returns a deep copy.
func (m *FactorMatrix) Clone() *FactorMatrix {
	c := NewFactor(len(m.rows), m.r)
	copy(c.rows, m.rows)
	return c
}

// Equal reports whether two factor matrices have identical shape and
// entries.
func (m *FactorMatrix) Equal(o *FactorMatrix) bool {
	if m.r != o.r || len(m.rows) != len(o.rows) {
		return false
	}
	for i, row := range m.rows {
		if o.rows[i] != row {
			return false
		}
	}
	return true
}

// Matrix converts the factor matrix to a general bit matrix.
func (m *FactorMatrix) Matrix() *Matrix {
	out := NewMatrix(len(m.rows), m.r)
	for i, row := range m.rows {
		for mask := row; mask != 0; mask &= mask - 1 {
			out.Set(i, bits.TrailingZeros64(mask), true)
		}
	}
	return out
}

// PermuteColumns returns a copy of m with columns reordered so that new
// column c is old column perm[c]. Used when matching recovered factors to
// planted ones (rank-1 components of a CP decomposition are unordered).
func (m *FactorMatrix) PermuteColumns(perm []int) *FactorMatrix {
	if len(perm) != m.r {
		panic(fmt.Sprintf("boolmat: permutation length %d != rank %d", len(perm), m.r))
	}
	out := NewFactor(len(m.rows), m.r)
	for i, row := range m.rows {
		var nr uint64
		for c, p := range perm {
			if row&(1<<uint(p)) != 0 {
				nr |= 1 << uint(c)
			}
		}
		out.rows[i] = nr
	}
	return out
}

// String renders the matrix with one row per line, for tests and debugging.
func (m *FactorMatrix) String() string {
	var sb strings.Builder
	for i := range m.rows {
		for c := 0; c < m.r; c++ {
			if m.Get(i, c) {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// KhatriRao returns the Boolean Khatri–Rao product A ⊙ B of two factor
// matrices with equal rank (Equation 3): the result has Rows(A)·Rows(B)
// rows, and row i·Rows(B)+j equals rowA(i) ∧ rowB(j). For binary inputs
// the columnwise Kronecker product is exactly this maskwise AND.
func KhatriRao(a, b *FactorMatrix) *FactorMatrix {
	if a.r != b.r {
		panic(fmt.Sprintf("boolmat: Khatri-Rao rank mismatch %d != %d", a.r, b.r))
	}
	out := NewFactor(a.Rows()*b.Rows(), a.r)
	idx := 0
	for _, ra := range a.rows {
		for _, rb := range b.rows {
			out.rows[idx] = ra & rb
			idx++
		}
	}
	return out
}
