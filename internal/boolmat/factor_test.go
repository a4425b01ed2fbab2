package boolmat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewFactorShape(t *testing.T) {
	m := NewFactor(5, 10)
	if m.Rows() != 5 || m.Rank() != 10 {
		t.Fatalf("shape = %dx%d, want 5x10", m.Rows(), m.Rank())
	}
	if m.OnesCount() != 0 {
		t.Fatal("new factor matrix not zeroed")
	}
}

func TestNewFactorRankLimit(t *testing.T) {
	NewFactor(1, MaxRank) // must not panic
	for _, r := range []int{-1, MaxRank + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFactor(1, %d) did not panic", r)
				}
			}()
			NewFactor(1, r)
		}()
	}
}

func TestFactorSetGet(t *testing.T) {
	m := NewFactor(3, 4)
	m.Set(1, 2, true)
	if !m.Get(1, 2) {
		t.Fatal("Get(1,2) false after Set")
	}
	if m.Get(1, 1) || m.Get(2, 2) {
		t.Fatal("unexpected entries set")
	}
	m.Set(1, 2, false)
	if m.Get(1, 2) {
		t.Fatal("Get(1,2) true after clearing")
	}
}

func TestFactorRowMask(t *testing.T) {
	m := NewFactor(2, 6)
	m.Set(0, 0, true)
	m.Set(0, 5, true)
	if got := m.RowMask(0); got != 0b100001 {
		t.Fatalf("RowMask = %#b, want 0b100001", got)
	}
	m.SetRowMask(1, 0b011010)
	for c, want := range []bool{false, true, false, true, true, false} {
		if m.Get(1, c) != want {
			t.Fatalf("entry (1,%d) = %v, want %v", c, m.Get(1, c), want)
		}
	}
}

func TestSetRowMaskRejectsHighBits(t *testing.T) {
	m := NewFactor(1, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("SetRowMask with out-of-rank bits did not panic")
		}
	}()
	m.SetRowMask(0, 0b1000)
}

func TestColumn(t *testing.T) {
	m := NewFactor(4, 3)
	m.Set(0, 1, true)
	m.Set(2, 1, true)
	m.Set(3, 0, true)
	col := m.Column(1)
	if col.Len() != 4 {
		t.Fatalf("Column length = %d, want 4", col.Len())
	}
	want := []bool{true, false, true, false}
	for i, w := range want {
		if col.Get(i) != w {
			t.Fatalf("column bit %d = %v, want %v", i, col.Get(i), w)
		}
	}
	cols := m.Columns()
	if len(cols) != 3 {
		t.Fatalf("Columns() returned %d vectors", len(cols))
	}
	if !cols[1].Equal(col) {
		t.Fatal("Columns()[1] != Column(1)")
	}
}

func TestDensityAndOnesCount(t *testing.T) {
	m := NewFactor(2, 4)
	m.SetRowMask(0, 0b1111)
	m.SetRowMask(1, 0b0001)
	if got := m.OnesCount(); got != 5 {
		t.Fatalf("OnesCount = %d, want 5", got)
	}
	if got := m.Density(); got != 5.0/8.0 {
		t.Fatalf("Density = %v, want 0.625", got)
	}
	if NewFactor(0, 0).Density() != 0 {
		t.Fatal("empty matrix density not 0")
	}
}

func TestRandomFactorDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := RandomFactor(rng, 2000, 20, 0.3)
	d := m.Density()
	if d < 0.27 || d > 0.33 {
		t.Fatalf("empirical density %v too far from 0.3", d)
	}
}

func TestCloneAndEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := RandomFactor(rng, 10, 8, 0.5)
	c := m.Clone()
	if !m.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Set(0, 0, !c.Get(0, 0))
	if m.Equal(c) {
		t.Fatal("clone shares storage")
	}
	if m.Equal(NewFactor(10, 7)) || m.Equal(NewFactor(9, 8)) {
		t.Fatal("Equal ignores shape")
	}
}

func TestPermuteColumns(t *testing.T) {
	m := NewFactor(2, 3)
	m.SetRowMask(0, 0b001)                // columns: 0 set
	m.SetRowMask(1, 0b110)                // columns: 1,2 set
	p := m.PermuteColumns([]int{2, 0, 1}) // new col c = old col perm[c]
	if p.RowMask(0) != 0b010 {            // old col 0 is now col 1
		t.Fatalf("row 0 = %#b", p.RowMask(0))
	}
	if p.RowMask(1) != 0b101 { // old cols {1,2} are now {2,0}
		t.Fatalf("row 1 = %#b", p.RowMask(1))
	}
}

func TestFactorMatrixConversion(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := RandomFactor(rng, 12, 9, 0.4)
	m := f.Matrix()
	if m.Rows() != 12 || m.Cols() != 9 {
		t.Fatalf("converted shape %dx%d", m.Rows(), m.Cols())
	}
	for i := 0; i < 12; i++ {
		for c := 0; c < 9; c++ {
			if f.Get(i, c) != m.Get(i, c) {
				t.Fatalf("entry (%d,%d) mismatch", i, c)
			}
		}
	}
}

func TestKhatriRaoDefinition(t *testing.T) {
	// Equation 3: (A ⊙ B) has column r = a_:r ⊗ b_:r.
	rng := rand.New(rand.NewSource(11))
	a := RandomFactor(rng, 4, 5, 0.5)
	b := RandomFactor(rng, 3, 5, 0.5)
	kr := KhatriRao(a, b)
	if kr.Rows() != 12 || kr.Rank() != 5 {
		t.Fatalf("Khatri-Rao shape %dx%d, want 12x5", kr.Rows(), kr.Rank())
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			for r := 0; r < 5; r++ {
				want := a.Get(i, r) && b.Get(j, r)
				if kr.Get(i*3+j, r) != want {
					t.Fatalf("KR entry (%d,%d,%d) = %v, want %v", i, j, r, kr.Get(i*3+j, r), want)
				}
			}
		}
	}
}

func TestKhatriRaoRankMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on rank mismatch")
		}
	}()
	KhatriRao(NewFactor(2, 3), NewFactor(2, 4))
}

func TestQuickKhatriRaoViaKronecker(t *testing.T) {
	// Column r of A ⊙ B equals column r of A ⊗ B restricted to the
	// columnwise-Kronecker positions, i.e. a_:r ⊗ b_:r.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		na, nb, r := rng.Intn(5)+1, rng.Intn(5)+1, rng.Intn(6)+1
		a := RandomFactor(rng, na, r, 0.5)
		b := RandomFactor(rng, nb, r, 0.5)
		kr := KhatriRao(a, b)
		kron := Kronecker(a.Matrix(), b.Matrix())
		for c := 0; c < r; c++ {
			for i := 0; i < na*nb; i++ {
				if kr.Get(i, c) != kron.Get(i, c*r+c) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
