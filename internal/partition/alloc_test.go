package partition

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"dbtf/internal/bitvec"
	"dbtf/internal/boolmat"
	"dbtf/internal/gen"
	"dbtf/internal/sumcache"
	"dbtf/internal/tensor"
)

// TestBuildAllocsIndependentOfBlocks pins the layout to slabs: the block
// table comes from the slab pool and goes back at Release, as the CSR arenas
// do, and the partitions are one allocation whatever their block count. So
// over a warm slab pool a partitioning of 512 PVM products costs exactly the
// objects one of 64 does, and no more bytes. FromTensor, the build from the
// coordinate list, keeps its cursors and tables in one slab, held until
// FreeTables: over a warm pool it costs Build's objects whatever the
// nonzero count or the PVM count, in every mode. Receive, the build from
// the set-up bodies, costs no more bytes over 512 PVM products than over 64
// either, in every mode, where its decode buffer comes from the pool.
func TestBuildAllocsIndependentOfBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var counts []float64
	coordCounts := map[float64]bool{}
	type build struct {
		density float64
		mode    tensor.Mode
		receive bool
	}
	bytes := map[build][]uint64{}
	for _, products := range []int{64, 512} {
		u := randomTensor(rng, 24, 16, products, 0.05).Unfold(tensor.Mode1)
		cycle := func() {
			px := Build(u, 6)
			if got := len(px.Parts[0].Blocks); got < products/6 {
				t.Fatalf("%d PVM products: partition 0 holds %d blocks", products, got)
			}
			px.Release()
		}
		cycle()
		counts = append(counts, testing.AllocsPerRun(20, cycle))
		for _, density := range []float64{0.05, 0.3} {
			for mode := tensor.Mode1; mode <= tensor.Mode3; mode++ {
				// The tensor has the PVM products along the mode's product axis.
				dims := [3]int{24, 16, 16}
				_, pvm, _ := mode.Axes()
				dims[pvm] = products
				x := randomTensor(rng, dims[0], dims[1], dims[2], density)
				fromTensor := func() { FromTensor(x, mode, 6, Carry{}).Release() }
				fromTensor()
				coordCounts[testing.AllocsPerRun(20, fromTensor)] = true
				key := build{density, mode, false}
				bytes[key] = append(bytes[key], bytesPerRun(5, fromTensor))

				// Machine 0 of 2 receives partitions 0, 2 and 4, carrying what
				// its mode-1 partitions hold. Receive decodes into a buffer of
				// eight columns per body byte, whose bytes follow the body's: a
				// mode-2 body at density 0.05 is a few dozen bytes, and its
				// buffer is made below the pool's floor. At 0.3 every buffer
				// here comes from the pool.
				if density < 0.3 {
					continue
				}
				var src *Columns
				if mode != tensor.Mode1 {
					held, _, err := Receive(dims, tensor.Mode1, 6, 0, 2, Carry{}, nil, homeBodies(x, tensor.Mode1, Carry{}))
					if err != nil {
						t.Fatal(err)
					}
					src = held.Transpose()
					held.Release()
				}
				carry := NewCarry(dims, mode, 2, 6)
				body := homeBodies(x, mode, carry)
				receive := func() {
					px, _, err := Receive(dims, mode, 6, 0, 2, carry, src, body)
					if err != nil {
						t.Fatalf("%d PVM products, mode %d: %v", products, mode, err)
					}
					px.Release()
				}
				key.receive = true
				bytes[key] = append(bytes[key], bytesPerRun(5, receive))
				if src != nil {
					src.Release()
				}
			}
		}
	}
	if counts[0] != counts[1] {
		t.Errorf("Build allocates %v objects over 64 PVM products and %v over 512, want the same", counts[0], counts[1])
	}
	if counts[1] > 12 {
		t.Errorf("Build and Release allocate %v objects over a warm slab pool, want at most 12", counts[1])
	}
	if len(coordCounts) != 1 {
		t.Errorf("FromTensor allocates %v objects over 64 and 512 PVM products, two densities and three modes, want one count", coordCounts)
	}
	if !coordCounts[counts[1]] {
		t.Errorf("FromTensor and Release allocate %v objects over a warm slab pool, want Build's %v", coordCounts, counts[1])
	}
	for b, n := range bytes {
		if n[1] > n[0] {
			name := "FromTensor"
			if b.receive {
				name = "Receive"
			}
			t.Errorf("%s and Release in mode %d at density %v allocate %d bytes over 512 PVM products and %d over 64, want no more", name, b.mode, b.density, n[1], n[0])
		}
	}
	if px := FromTensor(randomTensor(rng, 8, 8, 8, 0.3), tensor.Mode1, 2, Carry{}); px.tables == nil {
		t.Error("FromTensor freed its tables itself, while a concurrent build may ask the pool for one")
	}
}

// homeBodies returns the set-up bodies of machine 0 of 2, which holds
// partitions 0, 2 and 4 of x's partitioning in mode into 6.
func homeBodies(x *tensor.Tensor, mode tensor.Mode, carry Carry) []byte {
	px := FromTensor(x, mode, 6, carry)
	defer px.Release()
	var body []byte
	for pi := 0; pi < len(px.Parts); pi += 2 {
		body = px.AppendBody(body, pi)
	}
	return body
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes a call of f
// allocates, on one P, averaged over runs after a warm-up call. TotalAlloc
// is process-wide, so the least of three readings is the one believed.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	least := ^uint64(0)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/uint64(runs))
	}
	return least
}

// TestReleaseTwicePutsTheBlockTableOnce: a partitioning's block table goes
// back to the pool at its first Release only, so the pool never hands one
// table to two owners.
func TestReleaseTwicePutsTheBlockTableOnce(t *testing.T) {
	px := FromTensor(randomTensor(rand.New(rand.NewSource(13)), 8, 8, 64, 0.1), tensor.Mode1, 2, Carry{})
	table := px.blocks
	if len(table)*int(unsafe.Sizeof(Block{})) < 2048 {
		t.Fatalf("a table of %d blocks is below the pool's floor", len(table))
	}
	px.Release()
	px.Release()
	a, b := blockTables.Get(len(table)), blockTables.Get(len(table))
	if &a[0] != &table[0] {
		t.Error("the first Get after Release does not return the released table")
	}
	if &a[0] == &b[0] {
		t.Error("two Gets after a second Release return the same table")
	}
	blockTables.Put(a)
	blockTables.Put(b)
}

// TestRowKernelsAllocNothing: the per-row kernels — Hits against a
// materialized region, RowError against a summation, DeltaError against a
// single-group and an occluded delta — allocate nothing over every row of
// dense and sparse blocks.
func TestRowKernelsAllocNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const i, j, rank = 12, 70, 9
	dense := map[bool]bool{}
	for _, density := range []float64{0.004, 0.3} {
		px := Build(randomTensor(rng, i, j, 3, density).Unfold(tensor.Mode1), 1)
		factor := boolmat.RandomFactor(rng, j, rank, 0.2)
		for _, groupBits := range []int{3, 15} {
			cache := sumcache.NewFromFactor(factor, groupBits)
			region, scratch := make([]uint64, (j+63)/64), make([]uint64, (j+63)/64)
			var d sumcache.Delta
			mask, bit := uint64(0), uint64(0)
			for d.Empty() {
				bit = uint64(1) << uint(rng.Intn(rank))
				mask = rng.Uint64() & (1<<rank - 1) &^ bit
				cache.SumDelta(mask, bit, &d)
			}
			bitvec.GainWords(region, d.W1, d.W0, d.Occ)
			sum, pop := cache.Sum(mask, scratch)
			for bi := range px.Parts[0].Blocks {
				b := &px.Parts[0].Blocks[bi]
				dense[b.Dense()] = true
				var n int64
				if allocs := testing.AllocsPerRun(5, func() {
					for r := 0; r < i; r++ {
						n += int64(b.Hits(r, region)) + b.RowError(r, sum, pop) + b.DeltaError(r, &d)
					}
				}); allocs != 0 {
					t.Errorf("density %v, V=%d: a %s block's rows allocate %v objects, want 0", density, groupBits, b.Type, allocs)
				}
			}
		}
		px.Release()
	}
	if !dense[true] || !dense[false] {
		t.Errorf("the blocks are dense %v and sparse %v, want both", dense[true], dense[false])
	}
}

// TestHeldSetBytes pins the bytes a built set holds — its three modes'
// arenas, N = 4, summed by length — on two fixed inputs. A dense block keeps
// its nonzeros only as packed rows, so the planted tensor, whose blocks are
// dense, holds 52,476 B, a sixth of the 326,640 B it held when each of its
// nonzeros had a CSR offset beside its bit; the all-sparse tensor holds its
// CSR, the 30,876 B it always did.
func TestHeldSetBytes(t *testing.T) {
	planted, _, _, _ := gen.FromFactors(rand.New(rand.NewSource(1)), 48, 48, 48, 6, 0.3)
	for _, tc := range []struct {
		name  string
		x     *tensor.Tensor
		dense bool
		want  int
	}{
		{"planted", planted, true, 52_476},
		{"sparse", gen.Random(rand.New(rand.NewSource(2)), 48, 48, 48, 0.002), false, 30_876},
	} {
		held, dense := 0, false
		for mode := tensor.Mode1; mode <= tensor.Mode3; mode++ {
			px := FromTensor(tc.x, mode, 4, Carry{})
			held += 4*len(px.csrArena) + 8*len(px.denseArena)
			for bi := range px.blocks {
				dense = dense || px.blocks[bi].Dense()
			}
			px.Release()
		}
		if held != tc.want || dense != tc.dense {
			t.Errorf("%s: the set holds %d B with dense blocks %v, want %d B and %v", tc.name, held, dense, tc.want, tc.dense)
		}
	}
}

// TestExactSetHoldsItsLengths: a partitioning kept past its run
// (FromTensorExact) holds its block table and arenas at their exact length,
// so ResidentBytes is their lengths' bytes, the arenas' those
// TestHeldSetBytes pins. Its blocks, set-up bodies and ShuffleBytes are a
// pooled FromTensor's, whose class capacities hold more.
func TestExactSetHoldsItsLengths(t *testing.T) {
	planted, _, _, _ := gen.FromFactors(rand.New(rand.NewSource(1)), 48, 48, 48, 6, 0.3)
	for _, tc := range []struct {
		name   string
		x      *tensor.Tensor
		arenas int64
	}{
		{"planted", planted, 52_476},
		{"sparse", gen.Random(rand.New(rand.NewSource(2)), 48, 48, 48, 0.002), 30_876},
	} {
		var arenas, lengths, resident, pooled int64
		for mode := tensor.Mode1; mode <= tensor.Mode3; mode++ {
			carry := NewCarry([3]int{48, 48, 48}, mode, 2, 4)
			px, ref := FromTensorExact(tc.x, mode, 4, carry), FromTensor(tc.x, mode, 4, carry)
			if px.ShuffleBytes != ref.ShuffleBytes {
				t.Errorf("%s mode %d: the exact set ships %d B, the pooled one %d B", tc.name, mode, px.ShuffleBytes, ref.ShuffleBytes)
			}
			for pi := range px.Parts {
				if !sameBlocks(px.Parts[pi], ref.Parts[pi], px.NumRows) || !bytes.Equal(px.AppendBody(nil, pi), ref.AppendBody(nil, pi)) {
					t.Errorf("%s mode %d: partition %d differs from the pooled build's", tc.name, mode, pi)
				}
			}
			a := 4*int64(len(px.csrArena)) + 8*int64(len(px.denseArena))
			arenas += a
			lengths += a + int64(len(px.blocks))*int64(unsafe.Sizeof(Block{}))
			resident += px.ResidentBytes()
			pooled += ref.ResidentBytes()
			px.Release()
			ref.Release()
		}
		if arenas != tc.arenas || resident != lengths || pooled <= resident {
			t.Errorf("%s: the exact set's arenas hold %d B (want %d), ResidentBytes %d (want its lengths' %d), the pooled set's %d", tc.name, arenas, tc.arenas, resident, lengths, pooled)
		}
	}
}
