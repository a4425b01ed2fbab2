// Package gen generates the tensors the paper's experiments consume:
// uniform random tensors for the scalability sweeps (Section IV-B),
// factor-built tensors with additive/destructive noise for the
// reconstruction-error experiments (Section IV-D), and synthetic stand-ins
// for the six real-world datasets of Table III (see datasets.go).
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"dbtf/internal/boolmat"
	"dbtf/internal/tensor"
)

// Random returns an i×j×k tensor whose expected density is the given
// value, sampled without materializing the dense cell grid: the target
// nonzero count is drawn cell-free, so generation is O(|X|), not O(I·J·K).
func Random(rng *rand.Rand, i, j, k int, density float64) *tensor.Tensor {
	if !(density >= 0 && density <= 1) {
		panic(fmt.Sprintf("gen: density %v outside [0,1]", density))
	}
	cells := float64(i) * float64(j) * float64(k)
	target := int(density * cells)
	seen := make(map[tensor.Coord]struct{}, target)
	coords := make([]tensor.Coord, 0, target)
	for len(coords) < target {
		c := tensor.Coord{I: rng.Intn(i), J: rng.Intn(j), K: rng.Intn(k)}
		if _, dup := seen[c]; dup {
			continue
		}
		seen[c] = struct{}{}
		coords = append(coords, c)
	}
	return tensor.MustFromCoords(i, j, k, coords)
}

// FromFactors draws random factor matrices of the given density and
// returns the noise-free tensor they reconstruct, together with the
// factors — the generator of the paper's reconstruction-error experiments.
func FromFactors(rng *rand.Rand, i, j, k, r int, factorDensity float64) (*tensor.Tensor, *boolmat.FactorMatrix, *boolmat.FactorMatrix, *boolmat.FactorMatrix) {
	a := boolmat.RandomFactor(rng, i, r, factorDensity)
	b := boolmat.RandomFactor(rng, j, r, factorDensity)
	c := boolmat.RandomFactor(rng, k, r, factorDensity)
	return tensor.Reconstruct(a, b, c), a, b, c
}

// AddNoise applies the paper's noise model: additive noise adds
// additive·|X| new ones at uniformly random zero cells, and destructive
// noise removes destructive·|X| existing ones ("10% additive noise
// indicates that we add 10% more 1s"; "5% destructive noise means that we
// delete 5% of the 1s").
func AddNoise(rng *rand.Rand, x *tensor.Tensor, additive, destructive float64) *tensor.Tensor {
	if err := NoiseError(x, additive, destructive); err != nil {
		panic("gen: " + err.Error())
	}
	i, j, k := x.Dims()
	nnz := x.NNZ()

	// Destructive: drop a uniform sample of the ones.
	drop := int(destructive * float64(nnz))
	perm := rng.Perm(nnz)
	dropped := make(map[int]struct{}, drop)
	for _, p := range perm[:drop] {
		dropped[p] = struct{}{}
	}
	coords := make([]tensor.Coord, 0, nnz-drop)
	for idx, c := range x.Coords() {
		if _, gone := dropped[idx]; !gone {
			coords = append(coords, c)
		}
	}

	// Additive: flip zero cells until additive·|X| new ones are placed.
	add := int(additive * float64(nnz))
	seen := make(map[tensor.Coord]struct{}, len(coords)+add)
	for _, c := range coords {
		seen[c] = struct{}{}
	}
	for n := 0; n < add; {
		c := tensor.Coord{I: rng.Intn(i), J: rng.Intn(j), K: rng.Intn(k)}
		if _, dup := seen[c]; dup {
			continue
		}
		if x.Get(c.I, c.J, c.K) {
			continue // was a one in the original; not "new"
		}
		seen[c] = struct{}{}
		coords = append(coords, c)
		n++
	}
	return tensor.MustFromCoords(i, j, k, coords)
}

// NoiseError returns why AddNoise refuses the noise levels for x, or nil:
// an additive level that is negative or NaN, or that asks for more new ones
// than x has zero cells (the draw would never end), or a destructive level
// outside [0, 1].
func NoiseError(x *tensor.Tensor, additive, destructive float64) error {
	if !(destructive >= 0 && destructive <= 1) {
		return fmt.Errorf("destructive noise %v outside [0, 1]", destructive)
	}
	if !(additive >= 0) {
		return fmt.Errorf("additive noise %v is negative or NaN", additive)
	}
	i, j, k := x.Dims()
	nnz := float64(x.NNZ())
	if add, zeros := math.Floor(additive*nnz), float64(i)*float64(j)*float64(k)-nnz; !(add <= zeros) {
		return fmt.Errorf("additive noise %v asks for %v new ones, and the tensor has %v zero cells", additive, add, zeros)
	}
	return nil
}
