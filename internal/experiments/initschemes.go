package experiments

import (
	"fmt"

	"dbtf"
)

func init() {
	register("abl-init", "Ablation: initialization schemes — DBTF fiber/random/topfiber, BCP_ALS asso/topfiber (ISSUE 10)", AblationInitSchemes)
}

// bcpalsCandidateCap is the ASSO candidate-matrix cap used by the init
// ablation: scaled down from the default 1 GiB exactly like the workloads
// are scaled down from the paper's, so the quadratic blowup's cliff falls
// inside the sweep instead of past it. The candidate matrix for a d×d×d
// tensor is (d²)² bits per mode, so 16 MiB admits d = 96 (≈ 10.6 MiB) and
// rejects d = 128 (≈ 33.5 MiB).
const bcpalsCandidateCap = 16 << 20

// AblationInitSchemes compares initialization schemes on both layers the
// topfiber package wires into: DBTF's initial factor sets (fiber-sample
// vs random-L vs topfiber, measured as iterations-to-convergence and
// wall time) and BCP_ALS's per-mode init (quadratic ASSO vs near-linear
// topfiber, measured across the sizes where ASSO's candidate matrix
// crosses the memory cap).
func AblationInitSchemes(cfg Config) *Table {
	t := &Table{
		Title:  "initialization schemes: data-aware seeds vs random/quadratic (rank 6, planted + noise)",
		Header: []string{"method", "init", "I=J=K", "wall", "iters", "fit error", "relative"},
		Notes: []string{
			"DBTF rows run to convergence (MaxIter 10): iters is iterations-to-convergence from each seed",
			"random-L seeds carry no data information; on sparse tensors the greedy update can collapse them to all-zero factors",
			fmt.Sprintf("BCP_ALS rows cap ASSO candidate matrices at %d MiB (scaled from the 1 GiB default like the workloads)", bcpalsCandidateCap>>20),
			"o.o.m. marks ASSO's quadratic candidate matrix exceeding the cap; topfiber materializes nothing quadratic",
		},
	}
	row := func(init string, dim int, r Run) {
		t.Rows = append(t.Rows, []string{string(r.Method), init, fmt.Sprintf("%d", dim),
			r.TimeCell(), r.dash("%d", r.Iters), r.ErrorCell(), r.dash("%.3f", r.Rel)})
	}
	for _, base := range []int{48, 64} {
		dim := scaleDim(base, cfg.Scale)
		_, x := plantedTensor(cfg, dim, 6, 0.15, 0.05, 0.05)
		for _, scheme := range []dbtf.InitScheme{dbtf.InitFiberSample, dbtf.InitRandom, dbtf.InitTopFiber} {
			cfg.progress("abl-init: DBTF I=J=K=%d init=%v", dim, scheme)
			row(scheme.String(), dim, RunMethod(cfg, DBTF, x, MethodOptions{Rank: 6, Init: scheme}))
		}
	}
	for _, base := range []int{64, 96, 128} {
		dim := scaleDim(base, cfg.Scale)
		_, x := plantedTensor(cfg, dim, 6, 0.15, 0.05, 0.05)
		for _, init := range []dbtf.BCPALSInit{dbtf.BCPALSInitASSO, dbtf.BCPALSInitTopFiber} {
			cfg.progress("abl-init: BCP_ALS I=J=K=%d init=%v", dim, init)
			row(init.String(), dim, RunMethod(cfg, BCPALS, x, MethodOptions{Rank: 6, BCPALSInit: init, MaxCandidateBytes: bcpalsCandidateCap}))
		}
	}
	return t
}
