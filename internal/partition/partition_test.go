package partition

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dbtf/internal/bitvec"
	"dbtf/internal/boolmat"
	"dbtf/internal/gen"
	"dbtf/internal/sumcache"
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
		for bi := range p.Blocks {
			b := &p.Blocks[bi]
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
	// Row for row, the blocks' nonzeros read in column order (AppendRow, a
	// dense block's from its packed words, a sparse one's from its CSR) are
	// exactly the unfolding's row, and every block's rows add up to its
	// NNZ, whether the partitions were built through Build or by FromTensor — on a
	// small dense tensor, on the relationship-data shape (rows·blocks far
	// beyond the nonzero count), with a 1-wide and a 0-wide mode, and with
	// more partitions asked for than there are columns.
	rng := rand.New(rand.NewSource(2))
	forms := map[bool]bool{}
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
				for _, px := range []*Partitioned{Build(u, n), FromTensor(x, tensor.Mode(m+1), n, Carry{})} {
					for r := 0; r < u.NumRows; r++ {
						if got, err := rowOf(px, r); err != nil || !slices.Equal(got, u.Row(r)) {
							t.Fatalf("%dx%dx%d mode %d n=%d: row %d blocks hold %v (%v), unfolded has %v", i, j, k, m+1, n, r, got, err, u.Row(r))
						}
					}
					if err := blockNNZ(px, forms); err != nil {
						t.Fatalf("%dx%dx%d mode %d n=%d: %v", i, j, k, m+1, n, err)
					}
				}
			}
		}
	}
	if !forms[true] || !forms[false] {
		t.Errorf("the blocks are dense %v and sparse %v, want both", forms[true], forms[false])
	}
}

// rowOf returns row r of px's blocks read in column order, and an error if
// an offset lies outside its block, a block's row length is not its
// offsets' count, or a dense block holds CSR.
func rowOf(px *Partitioned, r int) ([]int32, error) {
	var got []int32
	for _, p := range px.Parts {
		for bi := range p.Blocks {
			b := &p.Blocks[bi]
			row := b.AppendRow(nil, r)
			if len(row) != b.rowLen(r) || b.Dense() && (b.rowPtr != nil || b.bits != nil) {
				return nil, fmt.Errorf("block [%d,%d): %d offsets, a row length of %d, dense %v with %d row pointers",
					b.Lo, b.Hi, len(row), b.rowLen(r), b.Dense(), len(b.rowPtr))
			}
			for _, bit := range row {
				if int(bit) >= b.Width() {
					return nil, fmt.Errorf("bit %d outside block [%d,%d)", bit, b.Lo, b.Hi)
				}
				got = append(got, int32(b.Lo)+bit)
			}
		}
	}
	return got, nil
}

// blockNNZ checks that every block of px holds NNZ nonzeros over its rows,
// and marks the forms it sees in forms.
func blockNNZ(px *Partitioned, forms map[bool]bool) error {
	for _, p := range px.Parts {
		for bi := range p.Blocks {
			b := &p.Blocks[bi]
			forms[b.Dense()] = true
			n := 0
			for r := 0; r < px.NumRows; r++ {
				n += len(b.AppendRow(nil, r))
			}
			if n != b.NNZ() {
				return fmt.Errorf("block [%d,%d) holds %d nonzeros, NNZ %d", b.Lo, b.Hi, n, b.NNZ())
			}
		}
	}
	return nil
}

func TestInnerLoConsistent(t *testing.T) {
	u := tensor.New(1, 7, 9).Unfold(tensor.Mode1)
	px := Build(u, 4)
	for _, p := range px.Parts {
		for bi := range p.Blocks {
			b := &p.Blocks[bi]
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
	// A body spends a count bit per row whatever its nonzeros: rows·N/8
	// bytes.
	overhead := int64(8 * 4 / 8)
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
			for bi := range p.Blocks {
				b := &p.Blocks[bi]
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

// TestRowHalvesMatchDeltaError: on dense and sparse blocks, against
// single-group and occluded deltas, DeltaError splits into the delta's
// size, which GainWords counts as it materializes the region, less twice
// the row's Hits against that region.
func TestRowHalvesMatchDeltaError(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const j, rank = 70, 9
	for _, density := range []float64{0.004, 0.3} {
		x := randomTensor(rng, 12, j, 3, density)
		blocks := Build(x.Unfold(tensor.Mode1), 1).Parts[0].Blocks
		factor := boolmat.RandomFactor(rng, j, rank, 0.2)
		for _, groupBits := range []int{3, 15} {
			cache := sumcache.NewFromFactor(factor, groupBits)
			region := make([]uint64, (j+63)/64)
			var d sumcache.Delta
			for trial := 0; trial < 40; trial++ {
				bit := uint64(1) << uint(rng.Intn(rank))
				if cache.SumDelta(rng.Uint64()&(1<<rank-1)&^bit, bit, &d); d.Empty() {
					continue
				}
				gain := bitvec.GainWords(region, d.W1, d.W0, d.Occ)
				for _, b := range blocks {
					for r := 0; r < 12; r++ {
						if h := b.Hits(r, region); int64(gain-2*h) != b.DeltaError(r, &d) {
							t.Fatalf("density %v V=%d row %d: a region of %d with %d hits, DeltaError %d",
								density, groupBits, r, gain, h, b.DeltaError(r, &d))
						}
					}
				}
			}
		}
	}
}

// TestBodyRoundTrip: Receive reads back exactly the partitions AppendBody
// writes, whose bodies encode back byte for byte, at both ends of the gap
// order rule — a row that fills every partition (c = W: order 0, every gap
// 0) and a row whose one nonzero per partition is its last column (c = 1:
// the largest order) — with empty rows beside them, and where carried
// segments split a row's gaps (N = 7 over M = 3; modes 2 and 3 carry what
// the machine's mode-1 partitions hold, as a run's set-up does).
func TestBodyRoundTrip(t *testing.T) {
	const i, j, k, machines = 6, 5, 7, 3
	for _, n := range []int{1, 4, 7} {
		rng := rand.New(rand.NewSource(int64(n)))
		var coords []tensor.Coord
		for c := 0; c < j*k; c++ {
			coords = append(coords, tensor.Coord{I: 0, J: c % j, K: c / j})
			if rng.Float64() < 0.3 {
				coords = append(coords, tensor.Coord{I: 3 + rng.Intn(3), J: c % j, K: c / j})
			}
		}
		for p := 0; p < n; p++ {
			last := (p+1)*j*k/n - 1
			coords = append(coords, tensor.Coord{I: 1, J: last % j, K: last / j})
		}
		x := tensor.MustFromCoords(i, j, k, coords)
		dims := [3]int{i, j, k}
		carried := false
		for home := 0; home < machines; home++ {
			var src *Columns
			for m, u := range x.UnfoldAll() {
				mode := tensor.Mode(m + 1)
				carry := NewCarry(dims, mode, machines, n)
				px := FromTensor(x, mode, n, carry)
				plain := Build(u, n)
				carried = carried || px.ShuffleBytes < plain.ShuffleBytes
				var body []byte
				for pi := home; pi < len(px.Parts); pi += machines {
					body = px.AppendBody(body, pi)
				}
				got, rest, err := Receive(dims, mode, n, home, machines, carry, src, body)
				if err != nil || len(rest) != 0 {
					t.Fatalf("n=%d machine %d mode %d: %v, %d bytes left", n, home, m+1, err, len(rest))
				}
				var again []byte
				for pi, part := range got.Parts {
					if (part != nil) != (pi%machines == home) {
						t.Fatalf("n=%d machine %d mode %d: holds partition %d: %v", n, home, m+1, pi, part != nil)
					}
					if part == nil {
						continue
					}
					if !sameBlocks(part, px.Parts[pi], u.NumRows) || got.ReshipBytes(pi) != px.ReshipBytes(pi) {
						t.Fatalf("n=%d machine %d mode %d: partition %d differs from the built one", n, home, m+1, pi)
					}
					again = got.AppendBody(again, pi)
				}
				if !slices.Equal(again, body) || got.ShuffleBytes != int64(len(body)) {
					t.Fatalf("n=%d machine %d mode %d: %d B of bodies re-encode to %d B, counted %d B", n, home, m+1, len(body), len(again), got.ShuffleBytes)
				}
				if m == 0 {
					src = got.Transpose()
					defer src.Release()
				}
				got.Release()
				px.Release()
				plain.Release()
			}
		}
		if n == 7 && !carried {
			t.Fatal("n=7: no body leaves a carried segment out")
		}
	}
}

// sameBlocks reports whether two partitions of a rows-row unfolding have
// the same bounds and blocks, row for row.
func sameBlocks(a, b *Partition, rows int) bool {
	if a.Index != b.Index || a.Lo != b.Lo || a.Hi != b.Hi || len(a.Blocks) != len(b.Blocks) {
		return false
	}
	for bi := range a.Blocks {
		x := &a.Blocks[bi]
		y := &b.Blocks[bi]
		if x.PVM != y.PVM || x.Lo != y.Lo || x.Hi != y.Hi || x.Type != y.Type || x.Dense() != y.Dense() {
			return false
		}
		for r := 0; r < rows; r++ {
			if !slices.Equal(x.AppendRow(nil, r), y.AppendRow(nil, r)) || !slices.Equal(x.RowWords(r), y.RowWords(r)) {
				return false
			}
		}
	}
	return true
}
