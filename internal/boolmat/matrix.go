package boolmat

import (
	"fmt"
	"math/bits"
	"math/rand"

	"dbtf/internal/bitvec"
)

// Matrix is a general n×m binary matrix with bit-packed rows backed by a
// single flat word array. Row views are zero-copy BitVecs.
type Matrix struct {
	n, m   int
	stride int // words per row
	words  []uint64
}

// NewMatrix returns a zeroed n×m bit matrix.
func NewMatrix(n, m int) *Matrix {
	if n < 0 || m < 0 {
		panic("boolmat: negative matrix dimension")
	}
	stride := (m + bitvec.WordBits - 1) / bitvec.WordBits
	return &Matrix{n: n, m: m, stride: stride, words: make([]uint64, n*stride)}
}

// RandomMatrix returns an n×m bit matrix whose entries are 1 independently
// with probability density, drawn from rng.
func RandomMatrix(rng *rand.Rand, n, m int, density float64) *Matrix {
	out := NewMatrix(n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if rng.Float64() < density {
				out.Set(i, j, true)
			}
		}
	}
	return out
}

// Rows returns the number of rows n.
func (a *Matrix) Rows() int { return a.n }

// Cols returns the number of columns m.
func (a *Matrix) Cols() int { return a.m }

// Row returns row i as a zero-copy bit vector view. Mutating the returned
// vector mutates the matrix.
func (a *Matrix) Row(i int) *bitvec.BitVec {
	return bitvec.Wrap(a.m, a.words[i*a.stride:(i+1)*a.stride])
}

// Get reports whether entry (i, j) is set.
func (a *Matrix) Get(i, j int) bool {
	if j < 0 || j >= a.m {
		panic(fmt.Sprintf("boolmat: column %d out of range [0,%d)", j, a.m))
	}
	return a.words[i*a.stride+j/bitvec.WordBits]&(1<<(uint(j)%bitvec.WordBits)) != 0
}

// Set assigns entry (i, j).
func (a *Matrix) Set(i, j int, v bool) {
	if j < 0 || j >= a.m {
		panic(fmt.Sprintf("boolmat: column %d out of range [0,%d)", j, a.m))
	}
	w := i*a.stride + j/bitvec.WordBits
	bit := uint64(1) << (uint(j) % bitvec.WordBits)
	if v {
		a.words[w] |= bit
	} else {
		a.words[w] &^= bit
	}
}

// OnesCount returns the number of set entries.
func (a *Matrix) OnesCount() int {
	n := 0
	for i := 0; i < a.n; i++ {
		n += a.Row(i).OnesCount()
	}
	return n
}

// Clone returns a deep copy.
func (a *Matrix) Clone() *Matrix {
	out := NewMatrix(a.n, a.m)
	copy(out.words, a.words)
	return out
}

// Equal reports whether two matrices have identical shape and entries.
func (a *Matrix) Equal(b *Matrix) bool {
	if a.n != b.n || a.m != b.m {
		return false
	}
	for i, w := range a.words {
		if b.words[i] != w {
			return false
		}
	}
	return true
}

// Transpose returns aᵀ.
func (a *Matrix) Transpose() *Matrix {
	out := NewMatrix(a.m, a.n)
	for i := 0; i < a.n; i++ {
		a.Row(i).Range(func(j int) {
			out.Set(j, i, true)
		})
	}
	return out
}

// XorCount returns |a ⊕ b|, the number of entries where the matrices
// differ. Shapes must match.
func (a *Matrix) XorCount(b *Matrix) int {
	if a.n != b.n || a.m != b.m {
		panic(fmt.Sprintf("boolmat: XorCount shape mismatch %dx%d vs %dx%d", a.n, a.m, b.n, b.m))
	}
	n := 0
	for i := 0; i < a.n; i++ {
		n += a.Row(i).XorCount(b.Row(i))
	}
	return n
}

// MulFactor returns the Boolean matrix product A ∘ M (Equation 6,
// (A ∘ M)_ij = ⋁_k a_ik ∧ m_kj) of a factor matrix (n×R) and a general
// matrix (R×m). Row i of the result is the Boolean sum of the rows of M
// selected by A's row mask i (Lemma 1).
func MulFactor(a *FactorMatrix, m *Matrix) *Matrix {
	if a.Rank() != m.n {
		panic(fmt.Sprintf("boolmat: MulFactor inner dimension mismatch %d != %d", a.Rank(), m.n))
	}
	out := NewMatrix(a.Rows(), m.m)
	for i := 0; i < a.Rows(); i++ {
		dst := out.Row(i)
		OrSelectedRows(dst, m, a.RowMask(i))
	}
	return out
}

// OrSelectedRows ORs into dst the rows of m selected by the set bits of
// mask. This is the Boolean row summation of Lemma 1 and the operation the
// DBTF cache tables precompute.
func OrSelectedRows(dst *bitvec.BitVec, m *Matrix, mask uint64) {
	for ; mask != 0; mask &= mask - 1 {
		dst.Or(m.Row(bits.TrailingZeros64(mask)))
	}
}

// Kronecker returns the Boolean Kronecker product a ⊗ b (Equation 2): a
// matrix of size Rows(a)·Rows(b) × Cols(a)·Cols(b) whose (i₁·n₂+i₂,
// j₁·m₂+j₂) entry is a_{i₁j₁} ∧ b_{i₂j₂}.
func Kronecker(a, b *Matrix) *Matrix {
	out := NewMatrix(a.n*b.n, a.m*b.m)
	for i1 := 0; i1 < a.n; i1++ {
		a.Row(i1).Range(func(j1 int) {
			for i2 := 0; i2 < b.n; i2++ {
				b.Row(i2).Range(func(j2 int) {
					out.Set(i1*b.n+i2, j1*b.m+j2, true)
				})
			}
		})
	}
	return out
}
