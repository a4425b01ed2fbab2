package experiments

import (
	"fmt"
	"time"

	"dbtf"
)

func init() {
	register("fig1a", "Figure 1(a): running time vs dimensionality (density 0.01, rank 10)", Fig1aDimensionality)
	register("fig1b", "Figure 1(b): running time vs density (I=J=K=2^7, rank 10)", Fig1bDensity)
	register("fig1c", "Figure 1(c): running time vs rank (I=J=K=2^7, density 0.05)", Fig1cRank)
	register("fig6", "Figure 6: running time on real-world dataset stand-ins", Fig6RealWorld)
	register("fig7", "Figure 7: machine scalability T4/TM (planted-factor tensor, rank 10)", Fig7MachineScalability)
	register("table1", "Table I: scalability comparison summary (derived from Figure 1 sweeps)", Table1Summary)
	register("table3", "Table III: dataset stand-in summary", Table3Datasets)
	register("traffic", "Lemmas 6-7: shuffled/broadcast/collected traffic vs |X|, M, N", TrafficValidation)
}

// fig1Rank is the rank used by the Figure 1(a)/(b) sweeps (the paper's 10).
const fig1Rank = 10

func scaleDim(base int, scale float64) int {
	n := int(float64(base) * scale)
	if n < 8 {
		n = 8
	}
	return n
}

// Fig1aDimensionality sweeps the cube dimensionality (paper: 2^6–2^13; we
// sweep 2^4–2^8 at Scale 1) and compares all three methods.
func Fig1aDimensionality(cfg Config) *Table {
	t := &Table{
		Title:  "running time vs dimensionality (density 0.01, rank 10)",
		Header: []string{"I=J=K", "nnz", "DBTF", "BCP_ALS", "Walk'n'Merge"},
		Notes: []string{
			fmt.Sprintf("per-run budget %v stands in for the paper's 6-hour wall", cfg.Budget),
			"paper sweeps 2^6..2^13 on a 17-node cluster; dimensions here are scaled down",
		},
	}
	for _, base := range []int{16, 32, 64, 128, 256} {
		dim := scaleDim(base, cfg.Scale)
		x := dbtf.RandomTensor(cfg.rng(), dim, dim, dim, 0.01)
		cfg.progress("fig1a: I=J=K=%d (nnz %d)", dim, x.NNZ())
		row := []string{fmt.Sprintf("%d", dim), fmt.Sprintf("%d", x.NNZ())}
		for _, m := range AllMethods {
			row = append(row, RunMethod(cfg, m, x, MethodOptions{Rank: fig1Rank, FullIterations: true}).TimeCell())
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig1bDensity sweeps the tensor density at fixed dimensionality (paper:
// 0.01–0.3 at 2^8; we use 2^7 at Scale 1).
func Fig1bDensity(cfg Config) *Table {
	dim := scaleDim(128, cfg.Scale)
	t := &Table{
		Title:  fmt.Sprintf("running time vs density (I=J=K=%d, rank 10)", dim),
		Header: []string{"density", "nnz", "DBTF", "BCP_ALS", "Walk'n'Merge"},
		Notes:  []string{fmt.Sprintf("per-run budget %v", cfg.Budget)},
	}
	for _, density := range []float64{0.01, 0.05, 0.1, 0.2, 0.3} {
		x := dbtf.RandomTensor(cfg.rng(), dim, dim, dim, density)
		cfg.progress("fig1b: density %.2f (nnz %d)", density, x.NNZ())
		row := []string{fmt.Sprintf("%.2f", density), fmt.Sprintf("%d", x.NNZ())}
		for _, m := range AllMethods {
			row = append(row, RunMethod(cfg, m, x, MethodOptions{Rank: fig1Rank, FullIterations: true}).TimeCell())
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig1cRank sweeps the decomposition rank (paper: 10–60).
func Fig1cRank(cfg Config) *Table {
	dim := scaleDim(128, cfg.Scale)
	x := dbtf.RandomTensor(cfg.rng(), dim, dim, dim, 0.05)
	t := &Table{
		Title:  fmt.Sprintf("running time vs rank (I=J=K=%d, density 0.05)", dim),
		Header: []string{"rank", "DBTF", "BCP_ALS", "Walk'n'Merge"},
		Notes: []string{
			fmt.Sprintf("per-run budget %v; cache group bits V=15, so ranks above 15 split the tables", cfg.Budget),
			"Walk'n'Merge is rank-oblivious: its block discovery cost is identical across ranks",
		},
	}
	for _, rank := range []int{10, 20, 30, 40, 50, 60} {
		cfg.progress("fig1c: rank %d", rank)
		row := []string{fmt.Sprintf("%d", rank)}
		for _, m := range AllMethods {
			row = append(row, RunMethod(cfg, m, x, MethodOptions{Rank: rank, FullIterations: true}).TimeCell())
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig6RealWorld compares the methods on the six Table III stand-ins.
func Fig6RealWorld(cfg Config) *Table {
	t := &Table{
		Title:  "running time on real-world dataset stand-ins (rank 10)",
		Header: []string{"dataset", "shape", "nnz", "DBTF", "BCP_ALS", "Walk'n'Merge"},
		Notes: []string{
			fmt.Sprintf("per-run budget %v stands in for the paper's 12-hour wall", cfg.Budget),
			"datasets are synthetic stand-ins with the Table III families' shapes (see DESIGN.md §5)",
		},
	}
	for _, d := range dbtf.StandinDatasets(cfg.rng(), cfg.Scale) {
		i, j, k := d.X.Dims()
		cfg.progress("fig6: %s %dx%dx%d (nnz %d)", d.Name, i, j, k, d.X.NNZ())
		row := []string{d.Name, fmt.Sprintf("%dx%dx%d", i, j, k), fmt.Sprintf("%d", d.X.NNZ())}
		for _, m := range AllMethods {
			row = append(row, RunMethod(cfg, m, d.X, MethodOptions{Rank: fig1Rank, MergeThreshold: 0.6, FullIterations: true}).TimeCell())
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig7MachineScalability sweeps the simulated machine count and reports
// T4/TM speedups from the simulated makespan (the host does not have 16
// physical cores; see DESIGN.md §5). The workload is a planted-factor
// tensor: its factor masks stay populated across iterations, so the
// per-stage compute reflects sustained update work, as on the paper's
// 2^12 tensor. Uniform random tensors collapse to near-empty factors
// after one sweep, leaving only fixed stage overhead with nothing to
// parallelize.
func Fig7MachineScalability(cfg Config) *Table {
	dim := scaleDim(512, cfg.Scale)
	_, x := plantedTensor(cfg, dim, fig1Rank, 0.2, 0.05, 0.05)
	t := &Table{
		Title:  fmt.Sprintf("machine scalability (I=J=K=%d planted factors, nnz %d, rank 10)", dim, x.NNZ()),
		Header: []string{"machines", "sim time", "speedup T4/TM"},
		Notes: []string{
			"speedups use the cluster's simulated makespan: per-task measured cost on M logical machines plus the network model",
			"the paper reports 2.2x from 4 to 16 machines; sublinearity comes from driver-side column commits, per-stage latency, and the driver's collect downlink",
		},
	}
	var t4 time.Duration
	for _, machines := range []int{4, 8, 16} {
		cfg.progress("fig7: %d machines", machines)
		r := RunDBTF(cfg, x, dbtf.Options{Rank: fig1Rank, Machines: machines, Partitions: 48, MaxIter: 3, MinIter: 3})
		if machines == 4 {
			t4 = r.Sim
		}
		speedup := "-"
		if t4 > 0 && r.Sim > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(t4)/float64(r.Sim))
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", machines), r.cell(formatDuration(r.Sim)), speedup})
	}
	return t
}

// Table1Summary reruns compact versions of the Figure 1 sweeps and derives
// the qualitative scalability verdicts of Table I.
func Table1Summary(cfg Config) *Table {
	t := &Table{
		Title:  "scalability comparison (derived: High = largest sweep point within budget)",
		Header: []string{"method", "dimensionality", "density", "rank", "distributed"},
	}
	dim := scaleDim(256, cfg.Scale)
	big := dbtf.RandomTensor(cfg.rng(), dim, dim, dim, 0.01)
	densDim := scaleDim(128, cfg.Scale)
	dense := dbtf.RandomTensor(cfg.rng(), densDim, densDim, densDim, 0.3)
	rankX := dbtf.RandomTensor(cfg.rng(), densDim, densDim, densDim, 0.05)

	verdict := func(r Run) string {
		if r.OK() {
			return "High"
		}
		return "Low"
	}
	distributed := map[Method]string{DBTF: "Yes", BCPALS: "No", WalkNMerge: "No"}
	for _, m := range AllMethods {
		cfg.progress("table1: %s", m)
		t.Rows = append(t.Rows, []string{
			string(m),
			verdict(RunMethod(cfg, m, big, MethodOptions{Rank: fig1Rank, FullIterations: true})),
			verdict(RunMethod(cfg, m, dense, MethodOptions{Rank: fig1Rank, FullIterations: true})),
			verdict(RunMethod(cfg, m, rankX, MethodOptions{Rank: 60, FullIterations: true})),
			distributed[m],
		})
	}
	t.Notes = append(t.Notes,
		"paper's Table I: Walk'n'Merge = Low/Low/High, BCP_ALS = Low/High/High, DBTF = High/High/High")
	return t
}

// Table3Datasets summarizes the generated stand-ins next to the paper's
// original dataset sizes.
func Table3Datasets(cfg Config) *Table {
	originals := map[string]string{
		"Facebook":     "64K x 64K x 870, 1.5M nnz",
		"DBLP":         "418K x 3.5K x 49, 1.3M nnz",
		"CAIDA-DDoS-S": "9K x 9K x 4K, 22M nnz",
		"CAIDA-DDoS-L": "9K x 9K x 393K, 331M nnz",
		"NELL-S":       "15K x 15K x 29K, 77M nnz",
		"NELL-L":       "112K x 112K x 213K, 18M nnz",
	}
	t := &Table{
		Title:  "dataset stand-ins vs the paper's originals",
		Header: []string{"dataset", "modes", "stand-in shape", "stand-in nnz", "paper original"},
	}
	for _, d := range dbtf.StandinDatasets(cfg.rng(), cfg.Scale) {
		i, j, k := d.X.Dims()
		t.Rows = append(t.Rows, []string{
			d.Name, d.Modes,
			fmt.Sprintf("%dx%dx%d", i, j, k),
			fmt.Sprintf("%d", d.X.NNZ()),
			originals[d.Name],
		})
	}
	return t
}

// TrafficValidation checks the shapes of Lemma 6 (shuffle ∝ |X|) and
// Lemma 7 (broadcast ∝ M, collect ∝ N·R·I) on live runs.
func TrafficValidation(cfg Config) *Table {
	dim := scaleDim(64, cfg.Scale)
	t := &Table{
		Title:  "cluster traffic vs Lemmas 6-7",
		Header: []string{"workload", "shuffled", "broadcast", "collected"},
		Notes: []string{
			"Lemma 6: shuffled bytes grow with |X| (rows 1-2), less than in proportion: the exact partition bodies shipped, a count per row and partition plus a gap per nonzero shipped, as Exp-Golomb codes whose length follows the row's density, so a denser row's gaps cost fewer bits — each once in its mode-1 body, and in its mode-2 or mode-3 body only when that partition's home (its index mod M) is not its mode-1 partition's, which at N=4 is the same for M=4 and M=8 (rows 1,3)",
			"Lemma 7: broadcast bytes scale with M (rows 1,3): the factors once, at their install, then each stage's push of the entries its commit flipped, so they follow the data too (rows 1-2); collected bytes scale with N (rows 1,4), less than in proportion: per eval stage each partition ships the hits of the rows that have one and a region size per lookup (a Full block's repeats left out), Exp-Golomb codes at each field's shortest order, and the driver rebuilds the group bases from the sizes, so a sparse partition's reply is short",
		},
	}
	base := dbtf.RandomTensor(cfg.rng(), dim, dim, dim, 0.02)
	dense := dbtf.RandomTensor(cfg.rng(), dim, dim, dim, 0.2)
	row := func(label string, x *dbtf.Tensor, machines, partitions int) {
		c := cfg
		c.Machines = machines
		cfg.progress("traffic: %s", label)
		r := RunMethod(c, DBTF, x, MethodOptions{Rank: 4, Partitions: partitions})
		t.Rows = append(t.Rows, []string{
			label,
			fmt.Sprintf("%d", r.Stats.ShuffledBytes),
			fmt.Sprintf("%d", r.Stats.BroadcastBytes),
			fmt.Sprintf("%d", r.Stats.CollectedBytes),
		})
	}
	row("base (M=4, N=4)", base, 4, 4)
	row("10x denser", dense, 4, 4)
	row("M=8", base, 8, 4)
	row("N=8", base, 4, 8)
	return t
}
