// Package metrics scores Boolean CP factorizations: reconstruction error
// relative to the input (the paper's Section IV-D measure), recovery
// against a known noise-free ground truth, cell-level precision/recall,
// and permutation-invariant factor similarity.
package metrics

import (
	"fmt"
	"math"

	"dbtf/internal/boolmat"
	"dbtf/internal/tensor"
)

// RelativeError returns |X ⊕ X̂| / |X|, the reconstruction error
// normalized by the input's nonzero count (so 1.0 is the trivial all-zero
// factorization). The empty-tensor edge cases follow the ratio's limits: a
// perfect reconstruction of an empty tensor scores 0, and a nonempty
// reconstruction of an empty tensor scores +Inf — every set cell is a
// false positive and no normalizer exists, so no finite score in the
// ratio's units is meaningful (an earlier version returned the raw error
// count here, which silently mixed units with every other return).
func RelativeError(x *tensor.Tensor, a, b, c *boolmat.FactorMatrix) float64 {
	e := tensor.ReconstructError(x, a, b, c)
	if x.NNZ() == 0 {
		if e == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return float64(e) / float64(x.NNZ())
}

// PrecisionRecall returns cell-level precision and recall of the
// reconstruction X̂ against a reference tensor: precision = |X̂ ∧ X| / |X̂|
// and recall = |X̂ ∧ X| / |X|. An empty reconstruction has precision 1.
func PrecisionRecall(x *tensor.Tensor, a, b, c *boolmat.FactorMatrix) (precision, recall float64) {
	rec := tensor.Reconstruct(a, b, c)
	tp := 0
	for _, co := range rec.Coords() {
		if x.Get(co.I, co.J, co.K) {
			tp++
		}
	}
	precision = 1
	if rec.NNZ() > 0 {
		precision = float64(tp) / float64(rec.NNZ())
	}
	recall = 1
	if x.NNZ() > 0 {
		recall = float64(tp) / float64(x.NNZ())
	}
	return precision, recall
}

// FactorSimilarity matches the components of an estimated factorization to
// a reference one (components of a CP decomposition carry no inherent
// order) and returns the mean Jaccard similarity of the matched rank-1
// supports, approximated per mode:
//
//	sim(r, s) = J(a_:r, a'_:s) · J(b_:r, b'_:s) · J(c_:r, c'_:s)
//
// Matching is greedy on descending similarity. Ranks must agree.
func FactorSimilarity(a1, b1, c1, a2, b2, c2 *boolmat.FactorMatrix) float64 {
	r := a1.Rank()
	if b1.Rank() != r || c1.Rank() != r || a2.Rank() != r || b2.Rank() != r || c2.Rank() != r {
		panic(fmt.Sprintf("metrics: rank mismatch %d/%d/%d vs %d/%d/%d",
			a1.Rank(), b1.Rank(), c1.Rank(), a2.Rank(), b2.Rank(), c2.Rank()))
	}
	if r == 0 {
		return 1
	}
	sim := make([][]float64, r)
	for i := 0; i < r; i++ {
		sim[i] = make([]float64, r)
		for j := 0; j < r; j++ {
			sim[i][j] = jaccard(a1, i, a2, j) * jaccard(b1, i, b2, j) * jaccard(c1, i, c2, j)
		}
	}
	usedI := make([]bool, r)
	usedJ := make([]bool, r)
	total := 0.0
	for n := 0; n < r; n++ {
		bi, bj, best := -1, -1, -1.0
		for i := 0; i < r; i++ {
			if usedI[i] {
				continue
			}
			for j := 0; j < r; j++ {
				if usedJ[j] {
					continue
				}
				if sim[i][j] > best {
					bi, bj, best = i, j, sim[i][j]
				}
			}
		}
		usedI[bi], usedJ[bj] = true, true
		total += best
	}
	return total / float64(r)
}

// jaccard computes the Jaccard similarity of column i of m1 and column j
// of m2. Two empty columns are fully similar.
func jaccard(m1 *boolmat.FactorMatrix, i int, m2 *boolmat.FactorMatrix, j int) float64 {
	c1 := m1.Column(i)
	c2 := m2.Column(j)
	if c1.Len() != c2.Len() {
		panic(fmt.Sprintf("metrics: column length mismatch %d vs %d", c1.Len(), c2.Len()))
	}
	inter := c1.AndCount(c2)
	union := c1.OnesCount() + c2.OnesCount() - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}
