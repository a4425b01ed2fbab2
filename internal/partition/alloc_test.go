package partition

import (
	"math/rand"
	"testing"

	"dbtf/internal/bitvec"
	"dbtf/internal/boolmat"
	"dbtf/internal/sumcache"
	"dbtf/internal/tensor"
)

// TestBuildAllocsIndependentOfBlocks pins Build's layout to slabs: the
// blocks, the pointers to them and the partitions are one allocation each
// whatever their number, so over a warm slab pool a partitioning of 512 PVM
// products costs exactly the objects one of 64 does (one object per block
// before, and three slices grown by append). FromTensor, the build from the
// coordinate list, keeps its cursors and tables in one slab, held until
// FreeTables: over a warm pool it costs Build's objects whatever the
// nonzero count or the PVM count, in every mode.
func TestBuildAllocsIndependentOfBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var counts []float64
	coordCounts := map[float64]bool{}
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
			x := randomTensor(rng, 24, 16, products, density)
			for mode := tensor.Mode1; mode <= tensor.Mode3; mode++ {
				build := func() { FromTensor(x, mode, 6, Carry{}).Release() }
				build()
				coordCounts[testing.AllocsPerRun(20, build)] = true
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
	if px := FromTensor(randomTensor(rng, 8, 8, 8, 0.3), tensor.Mode1, 2, Carry{}); px.tables == nil {
		t.Error("FromTensor freed its tables itself, while a concurrent build may ask the pool for one")
	}
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
			for _, b := range px.Parts[0].Blocks {
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
