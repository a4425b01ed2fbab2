package experiments

import (
	"context"
	"math/bits"
	"runtime/pprof"

	"dbtf"
	"dbtf/internal/bitvec"
	"dbtf/internal/boolmat"
	"dbtf/internal/cluster"
	"dbtf/internal/tensor"
	"dbtf/internal/topfiber"
)

// factorizeHorizontal runs the alternating updates under horizontal
// partitioning of the Khatri–Rao product: partitions own contiguous ranges
// of the rank dimension instead of column ranges of the unfolded tensor.
// This is the design Section III-D rejects, kept outside the engine as the
// partitioning ablation's strawman. It starts from the top-fiber seeds,
// runs exactly iters sweeps and sets an entry exactly when candidate 1's row
// error is strictly smaller, so its factors equal, bit for bit, those of
// dbtf.Factorize under Init: InitTopFiber and MinIter = MaxIter = iters.
//
// Its two predicted drawbacks are visible directly in the code: every
// Boolean row summation must combine per-partition partial summations
// through the driver (each partial is a full Q-bit vector, so the collected
// traffic per column is N·P·2·Q/8 bytes instead of N·P·8), and the level of
// parallelism is capped by the rank, which is usually far smaller than the
// tensor dimensionalities.
func factorizeHorizontal(ctx context.Context, x *dbtf.Tensor, machines, rank, partitions, iters int) (*dbtf.Result, error) {
	cl := cluster.New(cluster.Config{Machines: machines})
	a, b, c := topfiber.SeedFactors(x, rank)
	f := [3]*boolmat.FactorMatrix{a, b, c}
	ux := x.UnfoldAll()
	n := min(partitions, rank) // horizontal partitioning cannot exceed the rank
	rankLo := func(pi int) int { return pi * rank / n }
	// Each stage name's profile labels are derived once for the run; the
	// cluster uses a context that carries its stage's name as it is.
	kronCtx := pprof.WithLabels(ctx, pprof.Labels("stage", "kron"))
	evalCtx := pprof.WithLabels(ctx, pprof.Labels("stage", "eval-h"))
	for it := 0; it < iters; it++ {
		cl.Broadcast(int64(a.Rows()+b.Rows()+c.Rows()) * int64(rank) / 8)
		// X₍ₙ₎ ≈ upd ∘ (pvm ⊙ inner)ᵀ, the roles the mode's axes give.
		for m, u := range ux {
			ru, rp, ri := tensor.Mode(m + 1).Axes()
			upd, pvm, inner := f[ru], f[rp], f[ri]
			p, q := upd.Rows(), u.NumCols

			// Stage: each partition materializes its owned rows of
			// (pvm ⊙ inner)ᵀ as full-width Q-bit vectors (row r is pvm's
			// column r Kronecker inner's column r).
			kron := make([]*bitvec.BitVec, rank)
			err := cl.ForEachNamed(kronCtx, "kron", n, func(pi int) error {
				for r := rankLo(pi); r < rankLo(pi+1); r++ {
					v := bitvec.New(q)
					in := inner.Column(r).Indices()
					pvm.Column(r).Range(func(k int) {
						for _, j := range in {
							v.Set(k*u.BlockSize + j)
						}
					})
					kron[r] = v
				}
				return nil
			})
			if err != nil {
				return nil, err
			}

			// partials[pi][2·row+cand] is partition pi's Boolean summation of
			// its owned rank rows selected by the candidate mask.
			partials := make([][]*bitvec.BitVec, n)
			for pi := range partials {
				partials[pi] = make([]*bitvec.BitVec, 2*p)
				for i := range partials[pi] {
					partials[pi][i] = bitvec.New(q)
				}
			}
			combined := bitvec.New(q)
			for col := 0; col < rank; col++ {
				bit := uint64(1) << uint(col)
				err := cl.ForEachNamed(evalCtx, "eval-h", n, func(pi int) error {
					// Rank bits [rankLo(pi), rankLo(pi+1)); a shift by 64
					// yields 0 and the subtraction wraps to the right mask.
					owned := uint64(1)<<uint(rankLo(pi+1)) - uint64(1)<<uint(rankLo(pi))
					for row := 0; row < p; row++ {
						mask := upd.RowMask(row)
						for cand, key := range [2]uint64{mask &^ bit & owned, (mask | bit) & owned} {
							dst := partials[pi][2*row+cand]
							dst.Zero()
							for m := key; m != 0; m &= m - 1 {
								dst.Or(kron[bits.TrailingZeros64(m)])
							}
						}
					}
					return nil
				})
				if err != nil {
					return nil, err
				}
				// Every partial is a full Q-bit vector shipped to the driver:
				// the communication horizontal partitioning cannot avoid.
				cl.Collect(int64(n) * int64(p) * 2 * int64((q+7)/8))
				err = cl.DriverNamed(ctx, "commit-h", func() {
					for row := 0; row < p; row++ {
						var errs [2]int
						for cand := range errs {
							combined.Zero()
							for pi := range partials {
								combined.Or(partials[pi][2*row+cand])
							}
							// |x_row ⊕ sum| = |x_row| + |sum| − 2·|x_row ∧ sum|
							overlap := 0
							for _, xc := range u.Row(row) {
								if combined.Get(int(xc)) {
									overlap++
								}
							}
							errs[cand] = len(u.Row(row)) + combined.OnesCount() - 2*overlap
						}
						upd.Set(row, col, errs[1] < errs[0])
					}
				})
				if err != nil {
					return nil, err
				}
			}
		}
	}
	res := &dbtf.Result{Factors: dbtf.Factors{A: a, B: b, C: c}, Iterations: iters, Stats: cl.Stats(), SimTime: cl.SimElapsed()}
	res.Error = res.ReconstructError(x)
	return res, nil
}
