package boolmat

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dbtf/internal/bitvec"
)

func TestMatrixSetGet(t *testing.T) {
	m := NewMatrix(3, 100)
	m.Set(1, 70, true)
	if !m.Get(1, 70) {
		t.Fatal("Get false after Set")
	}
	if m.Get(0, 70) || m.Get(1, 69) {
		t.Fatal("unexpected entries set")
	}
	m.Set(1, 70, false)
	if m.Get(1, 70) {
		t.Fatal("Get true after clear")
	}
}

func TestMatrixRowIsView(t *testing.T) {
	m := NewMatrix(2, 80)
	row := m.Row(1)
	row.Set(79)
	if !m.Get(1, 79) {
		t.Fatal("Row() is not a live view")
	}
}

func TestMatrixTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := RandomMatrix(rng, 7, 130, 0.3)
	tr := m.Transpose()
	if tr.Rows() != 130 || tr.Cols() != 7 {
		t.Fatalf("transpose shape %dx%d", tr.Rows(), tr.Cols())
	}
	for i := 0; i < 7; i++ {
		for j := 0; j < 130; j++ {
			if m.Get(i, j) != tr.Get(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMatrixXorCount(t *testing.T) {
	a := NewMatrix(2, 70)
	b := NewMatrix(2, 70)
	a.Set(0, 0, true)
	a.Set(1, 69, true)
	b.Set(1, 69, true)
	b.Set(1, 68, true)
	if got := a.XorCount(b); got != 2 {
		t.Fatalf("XorCount = %d, want 2", got)
	}
}

// naiveMul is Equation 6 by its definition, (a ∘ b)_ij = ⋁_k a_ik ∧ b_kj:
// the oracle MulFactor is held to.
func naiveMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows(), b.Cols())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Cols(); j++ {
			for k := 0; k < a.Cols(); k++ {
				if a.Get(i, k) && b.Get(k, j) {
					out.Set(i, j, true)
					break
				}
			}
		}
	}
	return out
}

// factorOf converts a matrix of at most MaxRank columns to a factor matrix.
func factorOf(m *Matrix) *FactorMatrix {
	f := NewFactor(m.Rows(), m.Cols())
	for i := 0; i < m.Rows(); i++ {
		m.Row(i).Range(func(j int) { f.Set(i, j, true) })
	}
	return f
}

func TestMulInnerMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on inner dimension mismatch")
		}
	}()
	MulFactor(NewFactor(2, 3), NewMatrix(4, 2))
}

func TestMulFactorAgainstMul(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := RandomFactor(rng, 10, 12, 0.4)
	m := RandomMatrix(rng, 12, 33, 0.4)
	if !MulFactor(f, m).Equal(naiveMul(f.Matrix(), m)) {
		t.Fatal("MulFactor disagrees with the triple loop of Equation 6")
	}
}

func TestOrSelectedRowsLemma1(t *testing.T) {
	// Lemma 1: a_i: ∘ Mᵀ equals the Boolean sum of the rows of Mᵀ selected
	// by the nonzeros of a_i:.
	rng := rand.New(rand.NewSource(9))
	m := RandomMatrix(rng, 10, 25, 0.4)
	var mask uint64 = 0b1010010011
	dst := bitvec.New(25)
	OrSelectedRows(dst, m, mask)
	want := bitvec.New(25)
	for k := 0; k < 10; k++ {
		if mask&(1<<uint(k)) != 0 {
			want.Or(m.Row(k))
		}
	}
	if !dst.Equal(want) {
		t.Fatal("OrSelectedRows disagrees with explicit Boolean summation")
	}
}

func TestKroneckerDefinition(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, true)
	a.Set(1, 1, true)
	b := NewMatrix(2, 3)
	b.Set(0, 2, true)
	b.Set(1, 0, true)
	k := Kronecker(a, b)
	if k.Rows() != 4 || k.Cols() != 6 {
		t.Fatalf("Kronecker shape %dx%d, want 4x6", k.Rows(), k.Cols())
	}
	for i1 := 0; i1 < 2; i1++ {
		for j1 := 0; j1 < 2; j1++ {
			for i2 := 0; i2 < 2; i2++ {
				for j2 := 0; j2 < 3; j2++ {
					want := a.Get(i1, j1) && b.Get(i2, j2)
					if k.Get(i1*2+i2, j1*3+j2) != want {
						t.Fatalf("Kronecker entry mismatch at (%d,%d,%d,%d)", i1, j1, i2, j2)
					}
				}
			}
		}
	}
}

func TestQuickMulAssociatesWithOr(t *testing.T) {
	// (A ∨ B) ∘ C = (A ∘ C) ∨ (B ∘ C): Boolean sum distributes over the
	// Boolean matrix product.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, k, m := rng.Intn(6)+1, rng.Intn(6)+1, rng.Intn(6)+1
		a := RandomFactor(rng, n, k, 0.5)
		b := RandomFactor(rng, n, k, 0.5)
		c := RandomMatrix(rng, k, m, 0.5)
		ab := a.Clone()
		for i := 0; i < n; i++ {
			ab.SetRowMask(i, a.RowMask(i)|b.RowMask(i))
		}
		left := MulFactor(ab, c)
		right := MulFactor(a, c)
		bc := MulFactor(b, c)
		for i := 0; i < n; i++ {
			right.Row(i).Or(bc.Row(i))
		}
		return left.Equal(right)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m := rng.Intn(20)+1, rng.Intn(90)+1
		a := RandomMatrix(rng, n, m, 0.3)
		return a.Transpose().Transpose().Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickMulMatchesProductOfTransposes(t *testing.T) {
	// (A ∘ B)ᵀ = Bᵀ ∘ Aᵀ for Boolean products.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, k, m := rng.Intn(7)+1, rng.Intn(7)+1, rng.Intn(7)+1
		a := RandomFactor(rng, n, k, 0.5)
		b := RandomMatrix(rng, k, m, 0.5)
		return MulFactor(a, b).Transpose().Equal(MulFactor(factorOf(b.Transpose()), a.Matrix().Transpose()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMulFactor(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	f := RandomFactor(rng, 256, 16, 0.2)
	m := RandomMatrix(rng, 16, 4096, 0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MulFactor(f, m)
	}
}
