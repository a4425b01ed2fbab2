package experiments

import (
	"fmt"

	"dbtf"
)

func init() {
	register("err-density", "Section IV-D: reconstruction error vs factor density", ErrFactorDensity)
	register("err-rank", "Section IV-D: reconstruction error vs rank", ErrRank)
	register("err-add", "Section IV-D: reconstruction error vs additive noise", ErrAdditiveNoise)
	register("err-del", "Section IV-D: reconstruction error vs destructive noise", ErrDestructiveNoise)
}

// errWorkload is one reconstruction-error workload: a planted tensor and
// the parameters the methods are given for it.
type errWorkload struct {
	label string
	truth *dbtf.Tensor // noise-free
	noisy *dbtf.Tensor // factorization input
	rank  int
	merge float64 // Walk'n'Merge threshold t = 1 − n_d
}

// errDefaults are the fixed middle values held while one aspect varies.
const (
	errFactorDensity = 0.1
	errRank          = 10
	errAdditive      = 0.10
	errDestructive   = 0.05
)

func makeErrWorkload(cfg Config, label string, factorDensity float64, rank int, additive, destructive float64) errWorkload {
	truth, noisy := plantedTensor(cfg, scaleDim(128, cfg.Scale), rank, factorDensity, additive, destructive)
	return errWorkload{
		label: label,
		truth: truth,
		noisy: noisy,
		rank:  rank,
		merge: 1 - destructive,
	}
}

// runErrTable runs all methods on each workload and reports two relative
// errors per method: against the noisy input (the paper's reconstruction
// error) and against the noise-free truth (recovery).
func runErrTable(cfg Config, id, title string, workloads []errWorkload) *Table {
	t := &Table{
		Title: title,
		Header: []string{"workload", "nnz",
			"DBTF fit", "DBTF rec",
			"BCP_ALS fit", "BCP_ALS rec",
			"WnM fit", "WnM rec"},
		Notes: []string{
			"fit = |X_noisy ⊕ X̂| / |X_noisy|; rec = |X_clean ⊕ X̂| / |X_clean| (recovery of planted structure)",
			fmt.Sprintf("fixed parameters unless swept: factor density %.2f, rank %d, additive %.0f%%, destructive %.0f%%; DBTF uses L=4 initial sets",
				errFactorDensity, errRank, errAdditive*100, errDestructive*100),
		},
	}
	for _, w := range workloads {
		cfg.progress("%s: %s (nnz %d)", id, w.label, w.noisy.NNZ())
		row := []string{w.label, fmt.Sprintf("%d", w.noisy.NNZ())}
		for _, m := range AllMethods {
			run := RunMethod(cfg, m, w.noisy, MethodOptions{Rank: w.rank, MergeThreshold: w.merge, InitialSets: 4})
			rec := 0.0 // a failed run prints its mark in both cells
			if run.OK() {
				rec = dbtf.RelativeError(w.truth, run.Factors)
			}
			row = append(row, run.ErrCell(run.Rel), run.ErrCell(rec))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// ErrFactorDensity sweeps the planted factor density.
func ErrFactorDensity(cfg Config) *Table {
	var ws []errWorkload
	for _, d := range []float64{0.05, 0.1, 0.2, 0.3} {
		ws = append(ws, makeErrWorkload(cfg, fmt.Sprintf("density %.2f", d), d, errRank, errAdditive, errDestructive))
	}
	return runErrTable(cfg, "err-density", "reconstruction error vs factor matrix density", ws)
}

// ErrRank sweeps the planted (and fitted) rank.
func ErrRank(cfg Config) *Table {
	var ws []errWorkload
	for _, r := range []int{5, 10, 15, 20} {
		ws = append(ws, makeErrWorkload(cfg, fmt.Sprintf("rank %d", r), errFactorDensity, r, errAdditive, errDestructive))
	}
	return runErrTable(cfg, "err-rank", "reconstruction error vs rank", ws)
}

// ErrAdditiveNoise sweeps the additive noise level with no destructive
// noise.
func ErrAdditiveNoise(cfg Config) *Table {
	var ws []errWorkload
	for _, n := range []float64{0, 0.05, 0.1, 0.2, 0.3} {
		ws = append(ws, makeErrWorkload(cfg, fmt.Sprintf("additive %.0f%%", n*100), errFactorDensity, errRank, n, 0))
	}
	return runErrTable(cfg, "err-add", "reconstruction error vs additive noise", ws)
}

// ErrDestructiveNoise sweeps the destructive noise level with no additive
// noise.
func ErrDestructiveNoise(cfg Config) *Table {
	var ws []errWorkload
	for _, n := range []float64{0, 0.05, 0.1, 0.2} {
		ws = append(ws, makeErrWorkload(cfg, fmt.Sprintf("destructive %.0f%%", n*100), errFactorDensity, errRank, 0, n))
	}
	return runErrTable(cfg, "err-del", "reconstruction error vs destructive noise", ws)
}
