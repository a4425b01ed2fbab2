// Package bcpals implements BCP_ALS (Miettinen, "Boolean Tensor
// Factorizations", ICDM 2011), the single-machine alternating baseline the
// DBTF paper compares against.
//
// BCP_ALS follows the same alternating framework as DBTF (Algorithm 1)
// but differs in exactly the ways the paper calls out:
//
//   - it runs on a single machine and materializes the Khatri–Rao product
//     (C ⊙ B)ᵀ and the dense unfolded tensor rows in memory;
//   - every Boolean row summation is recomputed from the materialized
//     product rows — there is no caching;
//   - its initialization factorizes each mode's unfolding. Historically
//     that meant ASSO, whose column-association matrix is quadratic in the
//     number of columns of the unfolded tensor (I·J·K / dimension per
//     mode) — the space and time bottleneck the paper attributes to
//     BCP_ALS. The default here is the near-linear greedy top-fiber
//     factorization (topfiber package) instead, which makes the baseline
//     an honest competitor at the sizes where ASSO init runs out of
//     memory; InitASSO keeps the faithful quadratic path as an ablation.
package bcpals

import (
	"context"
	"fmt"
	"time"

	"dbtf/internal/asso"
	"dbtf/internal/bitvec"
	"dbtf/internal/boolmat"
	"dbtf/internal/tensor"
	"dbtf/internal/topfiber"
)

// Init selects how BCP_ALS initializes each mode's factor matrix.
type Init int

const (
	// InitTopFiber factorizes each mode's unfolding with the near-linear
	// greedy top-fiber scheme (topfiber package). The default: it removes
	// the quadratic blowup without touching the alternating updates.
	InitTopFiber Init = iota
	// InitASSO applies ASSO to each mode's unfolding, materializing the
	// quadratic column-association matrix — the faithful reproduction of
	// the baseline the paper benchmarks, kept for the init ablation. Runs
	// fail with asso.ErrCandidateMemory when the matrix exceeds
	// MaxCandidateBytes.
	InitASSO
)

// String returns the flag spelling of the init ("topfiber", "asso").
func (i Init) String() string {
	switch i {
	case InitTopFiber:
		return "topfiber"
	case InitASSO:
		return "asso"
	default:
		return fmt.Sprintf("Init(%d)", int(i))
	}
}

// ParseInit parses the flag spelling of a BCP_ALS init. The empty string
// selects the default (InitTopFiber).
func ParseInit(s string) (Init, error) {
	switch s {
	case "", "topfiber":
		return InitTopFiber, nil
	case "asso":
		return InitASSO, nil
	default:
		return 0, fmt.Errorf("bcpals: unknown init %q (want topfiber or asso)", s)
	}
}

// Options configures a BCP_ALS decomposition.
type Options struct {
	// Rank is the number of components R. Required.
	Rank int
	// MaxIter is the maximum number of iterations T. Default 10.
	MaxIter int
	// MinIter disables the convergence check before this many iterations.
	// Default 1.
	MinIter int
	// Init selects the per-mode initialization. Default InitTopFiber.
	Init Init
	// Tau is the ASSO initialization threshold under InitASSO. Default 0.7
	// (the paper's experimental setting).
	Tau float64
	// Tolerance stops the iteration when the error improves by at most
	// this much. Default 0.
	Tolerance int64
	// MaxCandidateBytes caps the ASSO candidate matrices under InitASSO;
	// exceeding it fails the run like the out-of-memory failures the paper
	// reports for BCP_ALS on real-world tensors. Default 1 GiB.
	MaxCandidateBytes int64
}

// Result reports the outcome of a BCP_ALS run.
type Result struct {
	// A, B, C are the binary factor matrices.
	A, B, C *boolmat.FactorMatrix
	// Error is the final Boolean reconstruction error |X ⊕ X̂|.
	Error int64
	// Iterations is the number of full iterations executed.
	Iterations int
	// Converged reports whether the tolerance criterion stopped the run.
	Converged bool
	// WallTime is the elapsed time of the run.
	WallTime time.Duration
}

// Decompose runs BCP_ALS on x. The context bounds the run, including the
// quadratic initialization.
func Decompose(ctx context.Context, x *tensor.Tensor, opts Options) (*Result, error) {
	if x == nil {
		return nil, fmt.Errorf("bcpals: nil tensor")
	}
	dimI, dimJ, dimK := x.Dims()
	if dimI == 0 || dimJ == 0 || dimK == 0 {
		return nil, fmt.Errorf("bcpals: empty tensor %dx%dx%d", dimI, dimJ, dimK)
	}
	opt := opts
	if opt.Rank < 1 || opt.Rank > boolmat.MaxRank {
		return nil, fmt.Errorf("bcpals: rank %d outside [1,%d]", opt.Rank, boolmat.MaxRank)
	}
	if opt.MaxIter == 0 {
		opt.MaxIter = 10
	}
	if opt.MaxIter < 1 {
		return nil, fmt.Errorf("bcpals: MaxIter %d < 1", opt.MaxIter)
	}
	if opt.MinIter == 0 {
		opt.MinIter = 1
	}
	if opt.MinIter < 1 || opt.MinIter > opt.MaxIter {
		return nil, fmt.Errorf("bcpals: MinIter %d outside [1,%d]", opt.MinIter, opt.MaxIter)
	}
	if opt.Tolerance < 0 {
		return nil, fmt.Errorf("bcpals: Tolerance %d < 0", opt.Tolerance)
	}
	if opt.Init != InitTopFiber && opt.Init != InitASSO {
		return nil, fmt.Errorf("bcpals: unknown init %d", int(opt.Init))
	}

	start := time.Now()
	us := x.UnfoldAll()
	u1, u2, u3 := us[0], us[1], us[2]

	// Per-mode initialization: the unfolding is factorized by the greedy
	// top-fiber scheme (near-linear, the default) or by ASSO (quadratic,
	// the faithful-ablation path).
	a, err := initFactor(ctx, u1, opt)
	if err != nil {
		return nil, fmt.Errorf("bcpals: mode-1 initialization: %w", err)
	}
	b, err := initFactor(ctx, u2, opt)
	if err != nil {
		return nil, fmt.Errorf("bcpals: mode-2 initialization: %w", err)
	}
	c, err := initFactor(ctx, u3, opt)
	if err != nil {
		return nil, fmt.Errorf("bcpals: mode-3 initialization: %w", err)
	}

	res := &Result{}
	rows1 := denseRows(u1)
	rows2 := denseRows(u2)
	rows3 := denseRows(u3)

	prevErr := int64(-1)
	for t := 1; t <= opt.MaxIter; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := updateFactor(ctx, rows1, a, c, b); err != nil {
			return nil, err
		}
		if err := updateFactor(ctx, rows2, b, c, a); err != nil {
			return nil, err
		}
		if err := updateFactor(ctx, rows3, c, b, a); err != nil {
			return nil, err
		}
		e := reconstructionError(rows1, a, c, b)
		res.Iterations = t
		if t >= opt.MinIter && prevErr >= 0 && prevErr-e <= opt.Tolerance {
			prevErr = e
			res.Converged = true
			break
		}
		prevErr = e
	}

	res.A, res.B, res.C = a, b, c
	res.Error = prevErr
	res.WallTime = time.Since(start)
	return res, nil
}

// initFactor initializes one factor matrix as the usage matrix of a
// Boolean factorization of the mode's unfolding.
func initFactor(ctx context.Context, u *tensor.Unfolded, opt Options) (*boolmat.FactorMatrix, error) {
	dense := boolmat.NewMatrix(u.NumRows, u.NumCols)
	for r := 0; r < u.NumRows; r++ {
		row := dense.Row(r)
		for _, c := range u.Row(r) {
			row.Set(int(c))
		}
	}
	if opt.Init == InitASSO {
		res, err := asso.Factorize(ctx, dense, asso.Options{
			Rank:              opt.Rank,
			Tau:               opt.Tau,
			MaxCandidateBytes: opt.MaxCandidateBytes,
		})
		if err != nil {
			return nil, err
		}
		return res.U, nil
	}
	res, err := topfiber.Factorize(ctx, dense, opt.Rank)
	if err != nil {
		return nil, err
	}
	return res.U, nil
}

// denseRows materializes every row of an unfolding as a bit vector — the
// single-machine memory footprint the paper contrasts with DBTF's
// partitioned sparse layout.
func denseRows(u *tensor.Unfolded) []*bitvec.BitVec {
	rows := make([]*bitvec.BitVec, u.NumRows)
	for r := 0; r < u.NumRows; r++ {
		rows[r] = bitvec.FromIndices32(u.NumCols, u.Row(r))
	}
	return rows
}

// updateFactor performs the greedy column-wise update of a against the
// materialized unfolding rows, recomputing every Boolean row summation
// from the materialized (mf ⊙ ms)ᵀ (no caching).
func updateFactor(ctx context.Context, xRows []*bitvec.BitVec, a, mf, ms *boolmat.FactorMatrix) error {
	krT := boolmat.KhatriRao(mf, ms).Matrix().Transpose() // R × Q
	q := krT.Cols()
	sum := bitvec.New(q)
	for c := 0; c < a.Rank(); c++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		bit := uint64(1) << uint(c)
		for r := 0; r < a.Rows(); r++ {
			var errs [2]int
			for cand := 0; cand < 2; cand++ {
				mask := a.RowMask(r) &^ bit
				if cand == 1 {
					mask |= bit
				}
				sum.Zero()
				boolmat.OrSelectedRows(sum, krT, mask)
				errs[cand] = xRows[r].XorCount(sum)
			}
			a.Set(r, c, errs[1] < errs[0])
		}
	}
	return nil
}

// reconstructionError computes |X₍₁₎ ⊕ A ∘ (C ⊙ B)ᵀ|.
func reconstructionError(xRows []*bitvec.BitVec, a, mf, ms *boolmat.FactorMatrix) int64 {
	krT := boolmat.KhatriRao(mf, ms).Matrix().Transpose()
	sum := bitvec.New(krT.Cols())
	var e int64
	for r := 0; r < a.Rows(); r++ {
		sum.Zero()
		boolmat.OrSelectedRows(sum, krT, a.RowMask(r))
		e += int64(xRows[r].XorCount(sum))
	}
	return e
}
