package experiments

import (
	"context"
	"fmt"

	"dbtf"
)

func init() {
	register("abl-cache", "Ablation: row-summation caching on vs off (Section III-C)", AblationCache)
	register("abl-groupbits", "Ablation: cache group bits V sweep (Lemma 2 trade-off)", AblationGroupBits)
	register("abl-partitioning", "Ablation: vertical vs horizontal partitioning (Section III-D)", AblationPartitioning)
	register("abl-partitions", "Ablation: number of partitions N sweep", AblationPartitions)
	register("abl-initsets", "Ablation: number of initial factor sets L (Algorithm 2)", AblationInitialSets)
}

// AblationCache compares DBTF with and without the row-summation cache —
// the optimization Section III-C calls the most important challenge.
func AblationCache(cfg Config) *Table {
	t := &Table{
		Title:  "row-summation caching on vs off (rank 20, dense planted factors)",
		Header: []string{"I=J=K", "cached", "uncached", "slowdown"},
		Notes: []string{
			"identical factor outputs are asserted by internal/core tests; only speed differs",
			"caching pays off with dense factor masks and wide rows; on tiny inputs the table build can even lose",
		},
	}
	for _, base := range []int{64, 128, 192} {
		dim := scaleDim(base, cfg.Scale)
		_, x := plantedTensor(cfg, dim, 20, 0.25, 0.05, 0.05)
		cfg.progress("abl-cache: I=J=K=%d", dim)
		on := RunDBTF(cfg, x, dbtf.Options{Rank: 20, MaxIter: 5, MinIter: 5, CacheGroupBits: 10})
		off := RunDBTF(cfg, x, dbtf.Options{Rank: 20, MaxIter: 5, MinIter: 5, CacheGroupBits: 10, NoCache: true})
		slowdown := "-"
		if on.OK() && off.OK() && on.Wall > 0 {
			slowdown = fmt.Sprintf("%.1fx", float64(off.Wall)/float64(on.Wall))
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", dim), on.TimeCell(), off.TimeCell(), slowdown})
	}
	return t
}

// AblationGroupBits sweeps the cache-splitting threshold V at a rank large
// enough that small V forces multiple tables.
func AblationGroupBits(cfg Config) *Table {
	dim := scaleDim(96, cfg.Scale)
	x := dbtf.RandomTensor(cfg.rng(), dim, dim, dim, 0.05)
	t := &Table{
		Title:  fmt.Sprintf("cache group bits V sweep (I=J=K=%d, rank 24)", dim),
		Header: []string{"V", "tables", "wall", "error"},
		Notes: []string{
			"rank 24: V>=24 is one 16M-entry table (infeasible); small V trades extra ORs for memory (Lemma 2)",
		},
	}
	for _, v := range []int{4, 6, 8, 12} {
		cfg.progress("abl-groupbits: V=%d", v)
		r := RunDBTF(cfg, x, dbtf.Options{Rank: 24, MaxIter: 10, MinIter: 10, CacheGroupBits: v})
		tables := (24 + v - 1) / v
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", v), fmt.Sprintf("%d", tables), r.TimeCell(), r.ErrorCell()})
	}
	return t
}

// AblationPartitioning compares vertical partitioning (DBTF) against the
// horizontal strawman of Section III-D (factorizeHorizontal), both from the
// top-fiber seeds for the same ten sweeps.
func AblationPartitioning(cfg Config) *Table {
	t := &Table{
		Title:  "vertical vs horizontal partitioning (rank 10, top-fiber seeds, 10 sweeps)",
		Header: []string{"I=J=K", "vertical wall", "vertical sim", "horizontal wall", "horizontal sim", "factors"},
		Notes: []string{
			"horizontal partitioning ships full-width partial row summations through the driver each column",
			"its simulated time includes the resulting network transfer cost",
			"'factors =' marks bit-identical factor matrices and error: partitioning changes where sums are computed, never their values",
		},
	}
	const rank, parts, iters = 10, 8, 10
	for _, base := range []int{32, 64} {
		dim := scaleDim(base, cfg.Scale)
		x := dbtf.RandomTensor(cfg.rng(), dim, dim, dim, 0.05)
		cfg.progress("abl-partitioning: I=J=K=%d", dim)
		v := RunDBTF(cfg, x, dbtf.Options{Rank: rank, MaxIter: iters, MinIter: iters, Partitions: parts, Init: dbtf.InitTopFiber})
		h := budgeted(cfg, "horizontal", "", x.NNZ(), func(ctx context.Context) (outcome, error) {
			return dbtfOutcome(factorizeHorizontal(ctx, x, cfg.Machines, rank, parts, iters))
		})
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", dim), v.TimeCell(), v.SimCell(), h.TimeCell(), h.SimCell(), sameOutput(v, h)})
	}
	return t
}

// AblationPartitions sweeps N, the number of vertical partitions.
func AblationPartitions(cfg Config) *Table {
	dim := scaleDim(128, cfg.Scale)
	x := dbtf.RandomTensor(cfg.rng(), dim, dim, dim, 0.02)
	t := &Table{
		Title:  fmt.Sprintf("partition count N sweep (I=J=K=%d, rank 10, M=16)", dim),
		Header: []string{"N", "wall", "sim", "collected bytes"},
		Notes: []string{
			"small N under-utilizes the machines; large N multiplies per-partition cache builds and driver collect traffic",
		},
	}
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		cfg.progress("abl-partitions: N=%d", n)
		r := RunDBTF(cfg, x, dbtf.Options{Rank: 10, MaxIter: 10, MinIter: 10, Partitions: n})
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", n), r.TimeCell(), r.SimCell(), r.dash("%d", r.Stats.CollectedBytes)})
	}
	return t
}

// AblationInitialSets sweeps L, the number of initial factor sets tried in
// the first iteration.
func AblationInitialSets(cfg Config) *Table {
	dim := scaleDim(64, cfg.Scale)
	_, x := plantedTensor(cfg, dim, 8, 0.1, 0.1, 0.05)
	t := &Table{
		Title:  fmt.Sprintf("initial factor sets L sweep (I=J=K=%d, rank 8, planted + noise)", dim),
		Header: []string{"L", "wall", "fit error", "relative"},
		Notes:  []string{"more initial sets trade first-iteration time for a better starting point (Algorithm 2 lines 5-8)"},
	}
	for _, l := range []int{1, 2, 4, 8} {
		cfg.progress("abl-initsets: L=%d", l)
		r := RunDBTF(cfg, x, dbtf.Options{Rank: 8, InitialSets: l})
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", l), r.TimeCell(), r.ErrorCell(), r.dash("%.3f", r.Rel)})
	}
	return t
}
