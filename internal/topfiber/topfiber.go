// Package topfiber implements the greedy top-fiber initialization scheme
// of topFiberM (Desouki et al., "topFiberM: Scalable and Efficient Boolean
// Matrix Factorization"), the near-linear replacement for the two quadratic
// initializers this repository started with:
//
//   - ASSO's m×m column-association matrix, which makes BCP_ALS drown in
//     O((JK)²) space and time on the unfolded tensors (DESIGN §2);
//   - DBTF's first iteration, which scores L random initial factor sets
//     that carry no information about the data.
//
// The idea is the same in both settings: the best rank-1 candidates are
// already sitting inside the data. Each round selects the fiber (a row of
// the matrix, or a mode-1 fiber of the tensor) covering the most
// still-uncovered ones, makes it the component's basis, and grows the
// component greedily by cover gain. Every round is one pass over the
// nonzeros plus one pass over the fiber index space — O(R·(nnz + fibers))
// total, against ASSO's O((JK)²) — and the scheme is fully deterministic:
// ties break toward the lowest index, so the same input always produces
// the same factors, independent of any seed, thread count, or transport.
//
// Coverage tests ride the repository's existing kernels: factor rows are
// uint64 masks (boolmat.FactorMatrix), so "is this cell inside an earlier
// component's block" is a single three-way AND of row masks, and the
// matrix path scores rows with bitvec popcount kernels.
package topfiber

import (
	"context"
	"fmt"

	"dbtf/internal/bitvec"
	"dbtf/internal/boolmat"
	"dbtf/internal/tensor"
)

// SeedFactors draws one data-aware set of initial factor matrices for a
// rank-R Boolean CP decomposition of x (DBTF's InitTopFiber scheme).
//
// Per component r it scores every mode-1 fiber (j, k) by the number of
// nonzeros x[:, j, k] not yet covered by components 0..r-1, selects the
// top fiber and grows the component from it (GrowFactors). When every
// remaining fiber is fully covered the remaining components stay empty —
// the alternating updates may still repopulate them.
//
// The result is deterministic in x and rank alone: ties break toward the
// lowest (j, k), no randomness is consumed, and one call allocates only
// the factor matrices plus three reusable score/vote arrays.
func SeedFactors(x *tensor.Tensor, rank int) (a, b, c *boolmat.FactorMatrix) {
	_, dimJ, dimK := x.Dims()
	coords := x.Coords()
	scores := make([]int32, dimJ*dimK)
	return GrowFactors(x, rank, func(a, b, c *boolmat.FactorMatrix) (int, int, bool) {
		// Score pass: count, per mode-1 fiber, the nonzeros outside every
		// earlier component's block. Row masks hold only the bits of
		// earlier components, so the three-way AND tests all of them at once.
		clear(scores)
		for _, co := range coords {
			if a.RowMask(co.I)&b.RowMask(co.J)&c.RowMask(co.K) == 0 {
				scores[co.J*dimK+co.K]++
			}
		}
		best, bestScore := -1, int32(0)
		for f, s := range scores {
			if s > bestScore {
				best, bestScore = f, s
			}
		}
		if best < 0 {
			// Everything is covered: the greedy has nothing left to add.
			return 0, 0, false
		}
		return best / dimK, best % dimK, true
	})
}

// GrowFactors builds a set of initial factor matrices one component at a
// time: the step DBTF's two data-aware initialization schemes share. They
// differ only in pick, which names the seed of the next component r — the
// mode-1 fiber (j, k) — from the components grown so far, or reports that
// nothing is left to seed and the remaining components stay empty. a_:r
// becomes the seed fiber's indicator vector; b_:r and c_:r grow from it by
// majority vote: an index joins the component when at least half of the
// a-members support it. That turns the fiber cross into a block estimate
// for the alternating updates to refine. pick is never called on a tensor
// without nonzeros.
func GrowFactors(x *tensor.Tensor, rank int, pick func(a, b, c *boolmat.FactorMatrix) (j, k int, ok bool)) (a, b, c *boolmat.FactorMatrix) {
	dimI, dimJ, dimK := x.Dims()
	a = boolmat.NewFactor(dimI, rank)
	b = boolmat.NewFactor(dimJ, rank)
	c = boolmat.NewFactor(dimK, rank)
	coords := x.Coords()
	if len(coords) == 0 {
		return a, b, c
	}
	// rowStart[i] indexes the first coordinate of mode-1 row i: the
	// coordinate list is sorted by (I, J, K), so each row is a contiguous
	// range and the vote pass walks only the member rows' slices.
	rowStart := make([]int, dimI+1)
	{
		r := 0
		for idx := range coords {
			for r <= coords[idx].I {
				rowStart[r] = idx
				r++
			}
		}
		for ; r <= dimI; r++ {
			rowStart[r] = len(coords)
		}
	}
	votesJ := make([]int32, dimJ)
	votesK := make([]int32, dimK)
	aIdx := make([]int, 0, dimI)
	for r := 0; r < rank; r++ {
		seedJ, seedK, ok := pick(a, b, c)
		if !ok {
			break
		}
		aIdx = aIdx[:0]
		for ii := 0; ii < dimI; ii++ {
			if x.Get(ii, seedJ, seedK) {
				a.Set(ii, r, true)
				aIdx = append(aIdx, ii)
			}
		}
		quorum := max(int32(len(aIdx)+1)/2, 1)
		// One pass over each member row tallies both vote vectors: row ii
		// contributes a J-vote for every nonzero in its seedK slice and a
		// K-vote for every nonzero in its seedJ slice.
		clear(votesJ)
		clear(votesK)
		for _, ii := range aIdx {
			for _, co := range coords[rowStart[ii]:rowStart[ii+1]] {
				if co.K == seedK {
					votesJ[co.J]++
				}
				if co.J == seedJ {
					votesK[co.K]++
				}
			}
		}
		for jj := 0; jj < dimJ; jj++ {
			if votesJ[jj] >= quorum {
				b.Set(jj, r, true)
			}
		}
		for kk := 0; kk < dimK; kk++ {
			if votesK[kk] >= quorum {
				c.Set(kk, r, true)
			}
		}
	}
	return a, b, c
}

// Result is a Boolean matrix factorization X ≈ U ∘ S.
type Result struct {
	// U is the n×R usage matrix.
	U *boolmat.FactorMatrix
	// S is the R×m basis matrix; row r is the selected top fiber.
	S *boolmat.Matrix
	// Error is |X ⊕ U ∘ S|.
	Error int64
}

// Factorize computes a rank-R Boolean factorization of x by greedy
// top-fiber selection — the drop-in replacement for asso.Factorize inside
// BCP_ALS's per-mode initialization.
//
// Each round selects the row of x with the most uncovered ones as the
// component's basis vector, then sets the usage bit of every row whose
// cover gain (newly covered ones minus newly covered zeros) is positive,
// exactly ASSO's greedy cover step — but the candidate pool is the n rows
// of x instead of a materialized m×m association matrix, so the whole
// factorization is O(R·n·m/64) bit-kernel work and never allocates
// anything quadratic. The context bounds the run; rounds check it.
func Factorize(ctx context.Context, x *boolmat.Matrix, rank int) (*Result, error) {
	if rank < 1 || rank > boolmat.MaxRank {
		return nil, fmt.Errorf("topfiber: rank %d outside [1,%d]", rank, boolmat.MaxRank)
	}
	n, m := x.Rows(), x.Cols()
	if n == 0 || m == 0 {
		return nil, fmt.Errorf("topfiber: empty matrix %dx%d", n, m)
	}
	u := boolmat.NewFactor(n, rank)
	s := boolmat.NewMatrix(rank, m)
	covered := boolmat.NewMatrix(n, m)
	rowOnes := make([]int, n)
	for i := 0; i < n; i++ {
		rowOnes[i] = x.Row(i).OnesCount()
	}
	scratch := bitvec.New(m)
	for r := 0; r < rank; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Top fiber: the row with the most ones outside the cover so far.
		// |x_i ∧ ¬covered_i| = |x_i| − |x_i ∧ covered_i|, so the score is
		// one popcount kernel per row.
		best, bestScore := -1, 0
		for i := 0; i < n; i++ {
			if sc := rowOnes[i] - x.Row(i).AndCount(covered.Row(i)); sc > bestScore {
				best, bestScore = i, sc
			}
		}
		if best < 0 {
			break // every one is covered; remaining components stay empty
		}
		cand := x.Row(best)
		candPop := rowOnes[best]
		s.Row(r).Or(cand)
		// Usage: a row joins when the candidate covers more of its
		// uncovered ones than it spills onto its zeros (w⁺ = w⁻ = 1, the
		// same weights BCP_ALS uses with ASSO).
		for i := 0; i < n; i++ {
			xr, cr := x.Row(i), covered.Row(i)
			onesAll := cand.AndCount(xr)
			scratch.Zero()
			scratch.Or(cand)
			scratch.And(xr)
			onesOld := scratch.AndCount(cr)
			zeros := candPop - onesAll
			if (onesAll-onesOld)-zeros > 0 {
				u.Set(i, r, true)
				cr.Or(cand)
			}
		}
	}
	rec := boolmat.MulFactor(u, s)
	return &Result{U: u, S: s, Error: int64(x.XorCount(rec))}, nil
}
