package partition

import (
	"math/rand"
	"testing"

	"dbtf/internal/tensor"
)

// TestBuildAllocsIndependentOfBlocks pins Build's layout to slabs: the
// blocks, the pointers to them and the partitions are one allocation each
// whatever their number, so over a warm slab pool a partitioning of 512 PVM
// products costs exactly the objects one of 64 does (one object per block
// before, and three slices grown by append). FromTensor, the build from the
// coordinate list, keeps its cursors and tables in one slab: over a warm
// pool it costs Build's objects whatever the nonzero count or the PVM
// count, in every mode.
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
}
