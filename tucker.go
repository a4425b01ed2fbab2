package dbtf

import (
	"context"

	"dbtf/internal/cluster"
	"dbtf/internal/core"
	"dbtf/internal/tucker"
)

// TuckerOptions configures FactorizeTucker.
type TuckerOptions struct {
	// CPRank is the rank of the initial Boolean CP decomposition.
	// Required; 1 ≤ CPRank ≤ MaxRank.
	CPRank int
	// MergeThreshold is the Jaccard similarity at or above which two
	// factor columns of the same mode merge (shrinking the core).
	// Default 0.8.
	MergeThreshold float64
	// MaxSweeps bounds the core-refinement sweeps. Default 2.
	MaxSweeps int
	// Machines is the simulated cluster size for the CP phase. Default:
	// GOMAXPROCS.
	Machines int
	// InitialSets, Seed and MaxIter configure the CP phase as in Options.
	InitialSets int
	Seed        int64
	MaxIter     int
}

// TuckerResult reports a Boolean Tucker decomposition
// X ≈ ⋁_{g_pqs=1} a_:p ∘ b_:q ∘ c_:s.
type TuckerResult struct {
	// Core is the binary core tensor G ∈ B^{P×Q×S}.
	Core *Tensor
	// A, B, C are the binary factor matrices (I×P, J×Q, K×S).
	A, B, C *FactorMatrix
	// Error is |X ⊕ X̂|.
	Error int64
	// CPError is the error of the initial CP decomposition; Error never
	// exceeds it.
	CPError int64
}

// FactorizeTucker computes a Boolean Tucker decomposition of x: DBTF's
// Boolean CP decomposition at CPRank, followed by per-mode merging of
// near-duplicate factor columns (with core folding) and greedy core
// refinement — the CP-to-Tucker construction of the Walk'n'Merge paper
// that the DBTF paper's related work discusses.
func FactorizeTucker(ctx context.Context, x *Tensor, opt TuckerOptions) (*TuckerResult, error) {
	ccfg := Options{Machines: opt.Machines}.clusterConfig()
	if err := ccfg.Validate(); err != nil {
		return nil, err
	}
	res, err := tucker.Decompose(ctx, x, cluster.New(ccfg), tucker.Options{
		CPRank:         opt.CPRank,
		MergeThreshold: opt.MergeThreshold,
		MaxSweeps:      opt.MaxSweeps,
		CP: core.Options{
			InitialSets: opt.InitialSets,
			Seed:        opt.Seed,
			MaxIter:     opt.MaxIter,
		},
	})
	if err != nil {
		return nil, err
	}
	return &TuckerResult{
		Core: res.Core, A: res.A, B: res.B, C: res.C,
		Error: res.Error, CPError: res.CPError,
	}, nil
}

// TuckerReconstructError returns |x ⊕ X̂| for a Tucker model.
func TuckerReconstructError(x *Tensor, r *TuckerResult) int64 {
	return tucker.ReconstructError(x, r.Core, r.A, r.B, r.C)
}

// TuckerReconstruct materializes the Tucker reconstruction as a tensor.
// Intended for small tensors.
func TuckerReconstruct(r *TuckerResult) *Tensor {
	return tucker.Reconstruct(r.Core, r.A, r.B, r.C)
}
