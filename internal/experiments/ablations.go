package experiments

import (
	"context"
	"fmt"
	"time"

	"dbtf"
)

func init() {
	register("abl-cache", "Ablation: row-summation caching on vs off (Section III-C)", AblationCache)
	register("abl-groupbits", "Ablation: cache group bits V sweep (Lemma 2 trade-off)", AblationGroupBits)
	register("abl-partitioning", "Ablation: vertical vs horizontal partitioning (Section III-D)", AblationPartitioning)
	register("abl-partitions", "Ablation: number of partitions N sweep", AblationPartitions)
	register("abl-initsets", "Ablation: number of initial factor sets L (Algorithm 2)", AblationInitialSets)
}

// runDBTFVariant runs DBTF with explicit option overrides under the
// budget.
func runDBTFVariant(cfg Config, x *dbtf.Tensor, opt dbtf.Options) (res *dbtf.Result, wall time.Duration, oot bool, err error) {
	if opt.Machines == 0 {
		opt.Machines = cfg.Machines
	}
	if opt.Seed == 0 {
		opt.Seed = cfg.Seed
	}
	if opt.Tracer == nil {
		opt.Tracer = cfg.Tracer
	}
	return runBudgeted(cfg, func(ctx context.Context) (*dbtf.Result, error) { return dbtf.Factorize(ctx, x, opt) })
}

// runBudgeted times one factorization under the budget; a run the budget
// cut short is out of time, not an error.
func runBudgeted(cfg Config, run func(context.Context) (*dbtf.Result, error)) (res *dbtf.Result, wall time.Duration, oot bool, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), cfg.Budget)
	defer cancel()
	start := time.Now()
	res, err = run(ctx)
	wall = time.Since(start)
	if err != nil && ctx.Err() != nil {
		return nil, cfg.Budget, true, nil
	}
	return res, wall, false, err
}

func variantCells(res *dbtf.Result, wall time.Duration, oot bool, err error) (timeCell, simCell, errCell string) {
	switch {
	case oot:
		return "o.o.t.", "-", "-"
	case err != nil:
		return "error", "-", "-"
	default:
		return formatDuration(wall), formatDuration(res.SimTime), fmt.Sprintf("%d", res.Error)
	}
}

// AblationCache compares DBTF with and without the row-summation cache —
// the optimization Section III-C calls the most important challenge.
func AblationCache(cfg Config) *Table {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:     "abl-cache",
		Title:  "row-summation caching on vs off (rank 20, dense planted factors)",
		Header: []string{"I=J=K", "cached", "uncached", "slowdown"},
		Notes: []string{
			"identical factor outputs are asserted by internal/core tests; only speed differs",
			"caching pays off with dense factor masks and wide rows; on tiny inputs the table build can even lose",
		},
	}
	for _, base := range []int{64, 128, 192} {
		dim := scaleDim(base, cfg.Scale)
		rng := cfg.rng()
		truth, _ := dbtf.TensorFromRandomFactors(rng, dim, dim, dim, 20, 0.25)
		x := dbtf.AddNoise(rng, truth, 0.05, 0.05)
		cfg.progress("abl-cache: I=J=K=%d", dim)
		on, wallOn, oot1, err1 := runDBTFVariant(cfg, x, dbtf.Options{Rank: 20, MaxIter: 5, MinIter: 5, CacheGroupBits: 10})
		off, wallOff, oot2, err2 := runDBTFVariant(cfg, x, dbtf.Options{Rank: 20, MaxIter: 5, MinIter: 5, CacheGroupBits: 10, NoCache: true})
		onCell, _, _ := variantCells(on, wallOn, oot1, err1)
		offCell, _, _ := variantCells(off, wallOff, oot2, err2)
		slowdown := "-"
		if !oot1 && !oot2 && err1 == nil && err2 == nil && wallOn > 0 {
			slowdown = fmt.Sprintf("%.1fx", float64(wallOff)/float64(wallOn))
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", dim), onCell, offCell, slowdown})
	}
	return t
}

// AblationGroupBits sweeps the cache-splitting threshold V at a rank large
// enough that small V forces multiple tables.
func AblationGroupBits(cfg Config) *Table {
	cfg = cfg.withDefaults()
	dim := scaleDim(96, cfg.Scale)
	x := dbtf.RandomTensor(cfg.rng(), dim, dim, dim, 0.05)
	t := &Table{
		ID:     "abl-groupbits",
		Title:  fmt.Sprintf("cache group bits V sweep (I=J=K=%d, rank 24)", dim),
		Header: []string{"V", "tables", "wall", "error"},
		Notes: []string{
			"rank 24: V>=24 is one 16M-entry table (infeasible); small V trades extra ORs for memory (Lemma 2)",
		},
	}
	for _, v := range []int{4, 6, 8, 12} {
		cfg.progress("abl-groupbits: V=%d", v)
		res, wall, oot, err := runDBTFVariant(cfg, x, dbtf.Options{Rank: 24, MaxIter: 10, MinIter: 10, CacheGroupBits: v})
		timeCell, _, errCell := variantCells(res, wall, oot, err)
		tables := (24 + v - 1) / v
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", v), fmt.Sprintf("%d", tables), timeCell, errCell})
	}
	return t
}

// AblationPartitioning compares vertical partitioning (DBTF) against the
// horizontal strawman of Section III-D (factorizeHorizontal), both from the
// top-fiber seeds for the same ten sweeps.
func AblationPartitioning(cfg Config) *Table {
	cfg = cfg.withDefaults()
	t := &Table{
		ID:     "abl-partitioning",
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
		v, wallV, ootV, errV := runDBTFVariant(cfg, x, dbtf.Options{Rank: rank, MaxIter: iters, MinIter: iters, Partitions: parts, Init: dbtf.InitTopFiber})
		h, wallH, ootH, errH := runBudgeted(cfg, func(ctx context.Context) (*dbtf.Result, error) {
			return factorizeHorizontal(ctx, x, cfg.Machines, rank, parts, iters)
		})
		vTime, vSim, _ := variantCells(v, wallV, ootV, errV)
		hTime, hSim, _ := variantCells(h, wallH, ootH, errH)
		same := "-"
		if v != nil && h != nil {
			same = "="
			if v.Error != h.Error || !v.A.Equal(h.A) || !v.B.Equal(h.B) || !v.C.Equal(h.C) {
				same = "DIVERGED"
			}
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", dim), vTime, vSim, hTime, hSim, same})
	}
	return t
}

// AblationPartitions sweeps N, the number of vertical partitions.
func AblationPartitions(cfg Config) *Table {
	cfg = cfg.withDefaults()
	dim := scaleDim(128, cfg.Scale)
	x := dbtf.RandomTensor(cfg.rng(), dim, dim, dim, 0.02)
	t := &Table{
		ID:     "abl-partitions",
		Title:  fmt.Sprintf("partition count N sweep (I=J=K=%d, rank 10, M=16)", dim),
		Header: []string{"N", "wall", "sim", "collected bytes"},
		Notes: []string{
			"small N under-utilizes the machines; large N multiplies per-partition cache builds and driver collect traffic",
		},
	}
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		cfg.progress("abl-partitions: N=%d", n)
		res, wall, oot, err := runDBTFVariant(cfg, x, dbtf.Options{Rank: 10, MaxIter: 10, MinIter: 10, Partitions: n})
		timeCell, simCell, _ := variantCells(res, wall, oot, err)
		collected := "-"
		if res != nil {
			collected = fmt.Sprintf("%d", res.Stats.CollectedBytes)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", n), timeCell, simCell, collected})
	}
	return t
}

// AblationInitialSets sweeps L, the number of initial factor sets tried in
// the first iteration.
func AblationInitialSets(cfg Config) *Table {
	cfg = cfg.withDefaults()
	dim := scaleDim(64, cfg.Scale)
	rng := cfg.rng()
	truth, _ := dbtf.TensorFromRandomFactors(rng, dim, dim, dim, 8, 0.1)
	x := dbtf.AddNoise(rng, truth, 0.1, 0.05)
	t := &Table{
		ID:     "abl-initsets",
		Title:  fmt.Sprintf("initial factor sets L sweep (I=J=K=%d, rank 8, planted + noise)", dim),
		Header: []string{"L", "wall", "fit error", "relative"},
		Notes:  []string{"more initial sets trade first-iteration time for a better starting point (Algorithm 2 lines 5-8)"},
	}
	for _, l := range []int{1, 2, 4, 8} {
		cfg.progress("abl-initsets: L=%d", l)
		res, wall, oot, err := runDBTFVariant(cfg, x, dbtf.Options{Rank: 8, InitialSets: l})
		timeCell, _, errCell := variantCells(res, wall, oot, err)
		rel := "-"
		if res != nil {
			rel = fmt.Sprintf("%.3f", res.RelativeError)
		}
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", l), timeCell, errCell, rel})
	}
	return t
}
