package tensor

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"dbtf/internal/boolmat"
)

func randomTensor(rng *rand.Rand, i, j, k int, density float64) *Tensor {
	var coords []Coord
	for a := 0; a < i; a++ {
		for b := 0; b < j; b++ {
			for c := 0; c < k; c++ {
				if rng.Float64() < density {
					coords = append(coords, Coord{a, b, c})
				}
			}
		}
	}
	return MustFromCoords(i, j, k, coords)
}

// sparseTensor draws nnz coordinates directly, for shapes whose cell grid is
// far larger than their nonzero count.
func sparseTensor(rng *rand.Rand, i, j, k, nnz int) *Tensor {
	coords := make([]Coord, nnz)
	for n := range coords {
		coords[n] = Coord{rng.Intn(i), rng.Intn(j), rng.Intn(k)}
	}
	return MustFromCoords(i, j, k, coords)
}

// unfoldShapes are the inputs every unfolding property is checked on: a
// small dense tensor, the relationship-data shape (rows·blocks ≫ nnz, the
// CAIDA-DDoS-S stand-in's dimensions and nonzero count), and a 1-wide and a
// 0-wide mode in each position.
func unfoldShapes(rng *rand.Rand) []*Tensor {
	return []*Tensor{
		randomTensor(rng, 6, 7, 8, 0.1),
		sparseTensor(rng, 256, 256, 64, 3600),
		randomTensor(rng, 1, 9, 5, 0.3), randomTensor(rng, 9, 1, 5, 0.3), randomTensor(rng, 9, 5, 1, 0.3),
		New(0, 4, 5), New(4, 0, 5), New(4, 5, 0),
	}
}

func TestFromCoordsDedupAndSort(t *testing.T) {
	coords := []Coord{{2, 0, 0}, {0, 1, 1}, {0, 1, 1}, {1, 2, 3}}
	x := MustFromCoords(3, 3, 4, coords)
	if x.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3 after dedup", x.NNZ())
	}
	got := x.Coords()
	want := []Coord{{0, 1, 1}, {1, 2, 3}, {2, 0, 0}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Coords = %v, want %v", got, want)
		}
	}
}

func TestFromCoordsOutOfRange(t *testing.T) {
	if _, err := FromCoords(2, 2, 2, []Coord{{0, 0, 2}}); err == nil {
		t.Fatal("out-of-range coordinate accepted")
	}
	if _, err := FromCoords(2, 2, 2, []Coord{{-1, 0, 0}}); err == nil {
		t.Fatal("negative coordinate accepted")
	}
}

func TestGet(t *testing.T) {
	x := MustFromCoords(4, 4, 4, []Coord{{1, 2, 3}, {0, 0, 0}})
	if !x.Get(1, 2, 3) || !x.Get(0, 0, 0) {
		t.Fatal("Get misses present entries")
	}
	if x.Get(1, 2, 2) || x.Get(3, 3, 3) {
		t.Fatal("Get reports absent entries")
	}
}

func TestDensity(t *testing.T) {
	x := MustFromCoords(2, 2, 2, []Coord{{0, 0, 0}, {1, 1, 1}})
	if x.Density() != 0.25 {
		t.Fatalf("Density = %v, want 0.25", x.Density())
	}
	if New(0, 5, 5).Density() != 0 {
		t.Fatal("empty-dimension tensor density not 0")
	}
}

func TestXorCount(t *testing.T) {
	a := MustFromCoords(3, 3, 3, []Coord{{0, 0, 0}, {1, 1, 1}, {2, 2, 2}})
	b := MustFromCoords(3, 3, 3, []Coord{{1, 1, 1}, {2, 2, 2}, {0, 1, 0}, {0, 2, 0}})
	if got := a.XorCount(b); got != 3 { // {0,0,0} only in a; {0,1,0},{0,2,0} only in b
		t.Fatalf("XorCount = %d, want 3", got)
	}
	if a.XorCount(a) != 0 {
		t.Fatal("self XorCount nonzero")
	}
}

func TestUnfoldMappingEquation1(t *testing.T) {
	// Every nonzero must land exactly where the 0-based Equation 1 says.
	x := MustFromCoords(3, 4, 5, []Coord{{2, 3, 4}, {0, 1, 2}, {1, 0, 0}})
	cases := []struct {
		mode Mode
		row  func(c Coord) int
		col  func(c Coord) int
	}{
		{Mode1, func(c Coord) int { return c.I }, func(c Coord) int { return c.J + c.K*4 }},
		{Mode2, func(c Coord) int { return c.J }, func(c Coord) int { return c.I + c.K*3 }},
		{Mode3, func(c Coord) int { return c.K }, func(c Coord) int { return c.I + c.J*3 }},
	}
	for _, tc := range cases {
		u := x.Unfold(tc.mode)
		if u.NNZ() != x.NNZ() {
			t.Fatalf("mode %d: NNZ %d != %d", tc.mode, u.NNZ(), x.NNZ())
		}
		for _, c := range x.Coords() {
			found := false
			for _, col := range u.Row(tc.row(c)) {
				if int(col) == tc.col(c) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("mode %d: coordinate %v not at (%d,%d)", tc.mode, c, tc.row(c), tc.col(c))
			}
		}
	}
}

func TestUnfoldShapes(t *testing.T) {
	x := New(3, 4, 5)
	u1, u2, u3 := x.Unfold(Mode1), x.Unfold(Mode2), x.Unfold(Mode3)
	check := func(u *Unfolded, rows, cols, block, blocks int) {
		t.Helper()
		if u.NumRows != rows || u.NumCols != cols || u.BlockSize != block || u.NumBlocks != blocks {
			t.Fatalf("shape (%d,%d,%d,%d), want (%d,%d,%d,%d)",
				u.NumRows, u.NumCols, u.BlockSize, u.NumBlocks, rows, cols, block, blocks)
		}
	}
	check(u1, 3, 20, 4, 5)
	check(u2, 4, 15, 3, 5)
	check(u3, 5, 12, 3, 4)
}

func TestUnfoldInvalidModePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Unfold(0) did not panic")
		}
	}()
	New(1, 1, 1).Unfold(Mode(0))
}

func TestFoldRoundtrip(t *testing.T) {
	for _, x := range unfoldShapes(rand.New(rand.NewSource(42))) {
		i, j, k := x.Dims()
		for _, m := range []Mode{Mode1, Mode2, Mode3} {
			if !Fold(x.Unfold(m), m, i, j, k).Equal(x) {
				t.Fatalf("%dx%dx%d mode %d: fold(unfold(x)) != x", i, j, k, m)
			}
		}
	}
}

// TestUnfoldAllAgreesWithUnfoldAndNaive holds the one kernel to Equation 1
// from both entry points: UnfoldAll()[m] and Unfold(m) must agree row for
// row with each other and with the definition written out naively — every
// nonzero mapped through Equation 1, each row sorted by comparison — and
// every (row, PVM block) bucket must be that row's columns inside the block.
func TestUnfoldAllAgreesWithUnfoldAndNaive(t *testing.T) {
	for _, x := range unfoldShapes(rand.New(rand.NewSource(9))) {
		dimI, dimJ, dimK := x.Dims()
		all := x.UnfoldAll()
		for m, mode := range []Mode{Mode1, Mode2, Mode3} {
			name := fmt.Sprintf("%dx%dx%d mode %d", dimI, dimJ, dimK, mode)
			var want [][]int32
			var block, blocks int
			switch mode {
			case Mode1:
				want, block, blocks = make([][]int32, dimI), dimJ, dimK
				for _, c := range x.Coords() {
					want[c.I] = append(want[c.I], int32(c.J+c.K*dimJ))
				}
			case Mode2:
				want, block, blocks = make([][]int32, dimJ), dimI, dimK
				for _, c := range x.Coords() {
					want[c.J] = append(want[c.J], int32(c.I+c.K*dimI))
				}
			case Mode3:
				want, block, blocks = make([][]int32, dimK), dimI, dimJ
				for _, c := range x.Coords() {
					want[c.K] = append(want[c.K], int32(c.I+c.J*dimI))
				}
			}
			one := x.Unfold(mode)
			for _, u := range []*Unfolded{all[m], one} {
				if u.NumRows != len(want) || u.BlockSize != block || u.NumBlocks != blocks ||
					u.NumCols != block*blocks || u.NNZ() != x.NNZ() {
					t.Fatalf("%s: shape (%d,%d,%d,%d) nnz %d", name, u.NumRows, u.NumCols, u.BlockSize, u.NumBlocks, u.NNZ())
				}
				for r, w := range want {
					slices.Sort(w)
					if !slices.Equal(u.Row(r), w) {
						t.Fatalf("%s: row %d = %v, want %v", name, r, u.Row(r), w)
					}
					for p := 0; p < blocks; p++ {
						var inBlock []int32
						for _, c := range w {
							if int(c)/block == p {
								inBlock = append(inBlock, c)
							}
						}
						if !slices.Equal(u.BlockRow(r, p), inBlock) {
							t.Fatalf("%s: BlockRow(%d,%d) = %v, want %v", name, r, p, u.BlockRow(r, p), inBlock)
						}
					}
				}
			}
		}
	}
}

func TestReconstructSingleComponent(t *testing.T) {
	a := boolmat.NewFactor(3, 1)
	b := boolmat.NewFactor(2, 1)
	c := boolmat.NewFactor(2, 1)
	a.Set(0, 0, true)
	a.Set(2, 0, true)
	b.Set(1, 0, true)
	c.Set(0, 0, true)
	c.Set(1, 0, true)
	x := Reconstruct(a, b, c)
	want := MustFromCoords(3, 2, 2, []Coord{{0, 1, 0}, {0, 1, 1}, {2, 1, 0}, {2, 1, 1}})
	if !x.Equal(want) {
		t.Fatalf("Reconstruct = %v, want %v", x.Coords(), want.Coords())
	}
}

func TestReconstructBooleanSum(t *testing.T) {
	// Overlapping rank-1 tensors must saturate (1 ⊕ 1 = 1), not double count.
	a := boolmat.NewFactor(1, 2)
	b := boolmat.NewFactor(1, 2)
	c := boolmat.NewFactor(1, 2)
	a.SetRowMask(0, 0b11)
	b.SetRowMask(0, 0b11)
	c.SetRowMask(0, 0b11)
	x := Reconstruct(a, b, c)
	if x.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1 (Boolean saturation)", x.NNZ())
	}
}

func TestReconstructErrorMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		i, j, k := rng.Intn(8)+1, rng.Intn(8)+1, rng.Intn(8)+1
		r := rng.Intn(5) + 1
		x := randomTensor(rng, i, j, k, 0.2)
		a := boolmat.RandomFactor(rng, i, r, 0.4)
		b := boolmat.RandomFactor(rng, j, r, 0.4)
		c := boolmat.RandomFactor(rng, k, r, 0.4)
		want := int64(x.XorCount(Reconstruct(a, b, c)))
		if got := ReconstructError(x, a, b, c); got != want {
			t.Fatalf("trial %d: ReconstructError = %d, want %d", trial, got, want)
		}
	}
}

func TestReconstructErrorPerfectFactors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := boolmat.RandomFactor(rng, 10, 3, 0.3)
	b := boolmat.RandomFactor(rng, 11, 3, 0.3)
	c := boolmat.RandomFactor(rng, 12, 3, 0.3)
	x := Reconstruct(a, b, c)
	if got := ReconstructError(x, a, b, c); got != 0 {
		t.Fatalf("error against own reconstruction = %d, want 0", got)
	}
}

func TestQuickMatricizedReconstruction(t *testing.T) {
	// Equation 12: X₍₁₎ of the reconstruction equals A ∘ (C ⊙ B)ᵀ.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		i, j, k, r := rng.Intn(6)+1, rng.Intn(6)+1, rng.Intn(6)+1, rng.Intn(4)+1
		a := boolmat.RandomFactor(rng, i, r, 0.4)
		b := boolmat.RandomFactor(rng, j, r, 0.4)
		c := boolmat.RandomFactor(rng, k, r, 0.4)
		rec := Reconstruct(a, b, c)
		u := rec.Unfold(Mode1)
		krT := boolmat.KhatriRao(c, b).Matrix().Transpose()
		prod := boolmat.MulFactor(a, krT)
		for row := 0; row < i; row++ {
			got := u.Row(row)
			for col := 0; col < u.NumCols; col++ {
				want := prod.Get(row, col)
				has := false
				for _, cc := range got {
					if int(cc) == col {
						has = true
						break
					}
				}
				if has != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickFoldUnfoldRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		i, j, k := rng.Intn(9)+1, rng.Intn(9)+1, rng.Intn(9)+1
		x := randomTensor(rng, i, j, k, 0.15)
		if seed%2 == 0 { // rows·blocks far beyond the nonzero count
			i, j, k = rng.Intn(90)+1, rng.Intn(90)+1, rng.Intn(90)+1
			x = sparseTensor(rng, i, j, k, rng.Intn(40))
		}
		for _, m := range []Mode{Mode1, Mode2, Mode3} {
			if !Fold(x.Unfold(m), m, i, j, k).Equal(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestReadWriteRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := randomTensor(rng, 5, 6, 7, 0.1)
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(x) {
		t.Fatal("roundtrip mismatch")
	}
}

func TestReadWriteFile(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := randomTensor(rng, 4, 4, 4, 0.2)
	path := filepath.Join(t.TempDir(), "x.tns")
	if err := x.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(x) {
		t.Fatal("file roundtrip mismatch")
	}
}

func TestReadFromErrors(t *testing.T) {
	cases := map[string]string{
		"empty":         "",
		"bad header":    "1 2\n",
		"bad entry":     "2 2 2\n0 0\n",
		"non-numeric":   "2 2 2\na b c\n",
		"out of bounds": "2 2 2\n0 0 5\n",
	}
	for name, in := range cases {
		if _, err := ReadFrom(bytes.NewReader([]byte(in))); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestReadFromSkipsBlankLines(t *testing.T) {
	x, err := ReadFrom(bytes.NewReader([]byte("2 2 2\n0 0 0\n\n1 1 1\n")))
	if err != nil {
		t.Fatal(err)
	}
	if x.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", x.NNZ())
	}
}

func BenchmarkUnfold(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomTensor(rng, 64, 64, 64, 0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Unfold(Mode1)
	}
}

func BenchmarkReconstructError(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randomTensor(rng, 64, 64, 64, 0.01)
	a := boolmat.RandomFactor(rng, 64, 10, 0.1)
	bm := boolmat.RandomFactor(rng, 64, 10, 0.1)
	c := boolmat.RandomFactor(rng, 64, 10, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ReconstructError(x, a, bm, c)
	}
}
