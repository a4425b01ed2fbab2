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
// before, and three slices grown by append).
func TestBuildAllocsIndependentOfBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var counts []float64
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
	}
	if counts[0] != counts[1] {
		t.Errorf("Build allocates %v objects over 64 PVM products and %v over 512, want the same", counts[0], counts[1])
	}
	if counts[1] > 12 {
		t.Errorf("Build and Release allocate %v objects over a warm slab pool, want at most 12", counts[1])
	}
}
