package partition

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dbtf/internal/gen"
	"dbtf/internal/tensor"
)

func randomTensor(rng *rand.Rand, i, j, k int, density float64) *tensor.Tensor {
	var coords []tensor.Coord
	for a := 0; a < i; a++ {
		for b := 0; b < j; b++ {
			for c := 0; c < k; c++ {
				if rng.Float64() < density {
					coords = append(coords, tensor.Coord{I: a, J: b, K: c})
				}
			}
		}
	}
	return tensor.MustFromCoords(i, j, k, coords)
}

func TestBuildCoversAllColumnsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := randomTensor(rng, 5, 7, 6, 0.2)
	u := x.Unfold(tensor.Mode1) // 5 × 42, block size 7
	px := Build(u, 4)
	if len(px.Parts) != 4 {
		t.Fatalf("parts = %d, want 4", len(px.Parts))
	}
	cur := 0
	for _, p := range px.Parts {
		if p.Lo != cur {
			t.Fatalf("partition %d starts at %d, want %d", p.Index, p.Lo, cur)
		}
		bcur := p.Lo
		for _, b := range p.Blocks {
			if b.Lo != bcur {
				t.Fatalf("block gap at %d", b.Lo)
			}
			bcur = b.Hi
		}
		if bcur != p.Hi {
			t.Fatalf("blocks end at %d, want %d", bcur, p.Hi)
		}
		cur = p.Hi
	}
	if cur != u.NumCols {
		t.Fatalf("partitions end at %d, want %d", cur, u.NumCols)
	}
}

func TestBalancedWidths(t *testing.T) {
	// Algorithm 3: ⌊Q/N⌋ ≤ H ≤ ⌈Q/N⌉.
	u := tensor.New(3, 10, 10).Unfold(tensor.Mode1) // Q = 100
	for _, n := range []int{1, 3, 7, 16, 100} {
		px := Build(u, n)
		lo, hi := 100/n, (100+n-1)/n
		for _, p := range px.Parts {
			if w := p.Width(); w < lo || w > hi {
				t.Fatalf("n=%d: partition width %d outside [%d,%d]", n, w, lo, hi)
			}
		}
	}
}

func TestNCappedAtColumns(t *testing.T) {
	u := tensor.New(2, 2, 2).Unfold(tensor.Mode1) // Q = 4
	px := Build(u, 10)
	if len(px.Parts) != 4 {
		t.Fatalf("parts = %d, want 4 (capped)", len(px.Parts))
	}
}

func TestBuildInvalidN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Build with n=0 did not panic")
		}
	}()
	Build(tensor.New(1, 1, 1).Unfold(tensor.Mode1), 0)
}

// blockSpans cuts [lo, hi) at multiples of blockSize, as Build's layout
// loop does.
func blockSpans(lo, hi, blockSize int) []span {
	var out []span
	for cur := lo; cur < hi; cur = out[len(out)-1].hi {
		out = append(out, spanAt(cur, hi, blockSize))
	}
	return out
}

func TestBlockTypes(t *testing.T) {
	// Block size 10, partition [3, 27) must split as Suffix[3,10) +
	// Full[10,20) + Prefix[20,27).
	u := tensor.New(1, 10, 5).Unfold(tensor.Mode1)
	spans := blockSpans(3, 27, 10)
	if len(spans) != 3 {
		t.Fatalf("spans = %v", spans)
	}
	types := []BlockType{classify(spans[0], 10), classify(spans[1], 10), classify(spans[2], 10)}
	want := []BlockType{Suffix, Full, Prefix}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("types = %v, want %v", types, want)
		}
	}
	// Interior: strictly inside one product.
	if got := classify(blockSpans(12, 17, 10)[0], 10); got != Interior {
		t.Fatalf("interior classified as %v", got)
	}
	_ = u
}

func TestBlockTypeString(t *testing.T) {
	for bt, want := range map[BlockType]string{Interior: "(1)", Suffix: "(2)", Full: "(3)", Prefix: "(4)"} {
		if bt.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(bt), bt.String(), want)
		}
	}
}

func TestLemma3AtMostThreeTypes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		blockSize := rng.Intn(20) + 1
		numBlocks := rng.Intn(20) + 1
		n := rng.Intn(16) + 1
		u := tensor.New(2, blockSize, numBlocks).Unfold(tensor.Mode1)
		px := Build(u, n)
		for _, p := range px.Parts {
			if len(p.TypeSet()) > 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBlockCSRMatchesUnfolded(t *testing.T) {
	// Row for row, the blocks' nonzeros read in column order are exactly the
	// unfolding's row, and a dense block's packed words hold the same bits —
	// on a small dense tensor, on the relationship-data shape (rows·blocks
	// far beyond the nonzero count), with a 1-wide and a 0-wide mode, and
	// with more partitions asked for than there are columns.
	rng := rand.New(rand.NewSource(2))
	for _, x := range []*tensor.Tensor{
		randomTensor(rng, 6, 9, 8, 0.15),
		gen.Random(rng, 256, 256, 64, 3600.0/(256*256*64)),
		randomTensor(rng, 1, 9, 5, 0.3), randomTensor(rng, 9, 1, 5, 0.3), randomTensor(rng, 9, 5, 1, 0.3),
		tensor.New(0, 4, 5), tensor.New(4, 0, 5), tensor.New(4, 5, 0),
	} {
		i, j, k := x.Dims()
		for m, u := range x.UnfoldAll() {
			ns := []int{1, 5, 16}
			if u.NumCols < 100 {
				ns = append(ns, u.NumCols+3)
			}
			for _, n := range ns {
				px := Build(u, n)
				for r := 0; r < u.NumRows; r++ {
					var got []int32
					for _, p := range px.Parts {
						for _, b := range p.Blocks {
							var words []uint64
							if b.Dense() {
								words = make([]uint64, len(b.RowWords(r)))
							}
							for _, bit := range b.RowBits(r) {
								if int(bit) >= b.Width() {
									t.Fatalf("%dx%dx%d mode %d n=%d: bit %d outside block [%d,%d)", i, j, k, m+1, n, bit, b.Lo, b.Hi)
								}
								got = append(got, int32(b.Lo)+bit)
								if b.Dense() {
									words[bit>>6] |= 1 << (uint(bit) & 63)
								}
							}
							if !slices.Equal(b.RowWords(r), words) {
								t.Fatalf("%dx%dx%d mode %d n=%d: block [%d,%d) row %d packed words differ from its offsets", i, j, k, m+1, n, b.Lo, b.Hi, r)
							}
						}
					}
					if !slices.Equal(got, u.Row(r)) {
						t.Fatalf("%dx%dx%d mode %d n=%d: row %d blocks hold %v, unfolded has %v", i, j, k, m+1, n, r, got, u.Row(r))
					}
				}
			}
		}
	}
}

func TestInnerLoConsistent(t *testing.T) {
	u := tensor.New(1, 7, 9).Unfold(tensor.Mode1)
	px := Build(u, 4)
	for _, p := range px.Parts {
		for _, b := range p.Blocks {
			if b.InnerLo != b.Lo-b.PVM*u.BlockSize {
				t.Fatalf("block at %d: InnerLo %d inconsistent", b.Lo, b.InnerLo)
			}
			if b.InnerLo < 0 || b.InnerLo+b.Width() > u.BlockSize {
				t.Fatalf("block at %d exceeds its PVM product", b.Lo)
			}
		}
	}
}

func TestShuffleBytesProportionalToNNZ(t *testing.T) {
	// Lemma 6: shuffle volume is O(|X|).
	rng := rand.New(rand.NewSource(3))
	small := randomTensor(rng, 8, 8, 8, 0.05)
	large := randomTensor(rng, 8, 8, 8, 0.4)
	ps := Build(small.Unfold(tensor.Mode1), 4)
	pl := Build(large.Unfold(tensor.Mode1), 4)
	if ps.ShuffleBytes >= pl.ShuffleBytes {
		t.Fatalf("shuffle bytes not increasing with nnz: %d vs %d", ps.ShuffleBytes, pl.ShuffleBytes)
	}
	overhead := int64(8 * 4) // rowPtr bytes, independent of nnz
	ratio := float64(pl.ShuffleBytes-overhead) / float64(ps.ShuffleBytes-overhead)
	nnzRatio := float64(large.NNZ()) / float64(small.NNZ())
	if ratio < nnzRatio*0.5 || ratio > nnzRatio*2 {
		t.Fatalf("shuffle bytes ratio %.2f far from nnz ratio %.2f", ratio, nnzRatio)
	}
}

func TestPartitionNNZ(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randomTensor(rng, 5, 6, 7, 0.2)
	u := x.Unfold(tensor.Mode3)
	px := Build(u, 3)
	total := 0
	for _, p := range px.Parts {
		total += p.NNZ()
	}
	if total != u.NNZ() {
		t.Fatalf("partition NNZ sum %d != %d", total, u.NNZ())
	}
}

func TestQuickBlocksAlwaysWithinOneProduct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		blockSize := rng.Intn(15) + 1
		numBlocks := rng.Intn(15) + 1
		n := rng.Intn(10) + 1
		u := tensor.New(1, blockSize, numBlocks).Unfold(tensor.Mode1)
		px := Build(u, n)
		for _, p := range px.Parts {
			for _, b := range p.Blocks {
				if b.Lo/blockSize != (b.Hi-1)/blockSize {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
