package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"dbtf"
)

func init() {
	register("ext-tucker", "Extension: Boolean Tucker vs CP on shared-structure tensors", ExtTucker)
	register("ext-rankselect", "Extension: MDL rank selection on planted tensors", ExtRankSelect)
	register("ext-wnm-mdl", "Extension: Walk'n'Merge MDL model-order selection", ExtWalkNMergeMDL)
}

// cube builds a dim³ tensor from coords.
func cube(dim int, coords []dbtf.Coord) *dbtf.Tensor {
	x, err := dbtf.TensorFromCoords(dim, dim, dim, coords)
	if err != nil {
		panic(err) // generated in range
	}
	return x
}

// sharedStructureTensor plants nBlocks blocks that all reuse the same
// mode-1 index set — the regime where a Tucker core is strictly more
// compact than CP components.
func sharedStructureTensor(rng *rand.Rand, dim, nBlocks, blockSize int) *dbtf.Tensor {
	var coords []dbtf.Coord
	rows := rng.Perm(dim)[:blockSize]
	for b := 0; b < nBlocks; b++ {
		js := rng.Perm(dim)[:blockSize]
		ks := rng.Perm(dim)[:blockSize]
		for _, i := range rows {
			for _, j := range js {
				for _, k := range ks {
					coords = append(coords, dbtf.Coord{I: i, J: j, K: k})
				}
			}
		}
	}
	return cube(dim, coords)
}

// diagonalBlocks plants n disjoint dense blocks along the diagonal of a
// dim³ cube, each two thirds of its dim/n share wide.
func diagonalBlocks(dim, n int) []dbtf.Coord {
	var coords []dbtf.Coord
	per := dim / n
	size := per * 2 / 3
	for b := 0; b < n; b++ {
		lo := b * per
		for i := lo; i < lo+size; i++ {
			for j := lo; j < lo+size; j++ {
				for k := lo; k < lo+size; k++ {
					coords = append(coords, dbtf.Coord{I: i, J: j, K: k})
				}
			}
		}
	}
	return coords
}

// The three extension experiments report more than a Run carries (a core
// tensor, a bit count per rank, a block list): each passes its call to
// budgeted as the run closure and keeps the full result beside the Run,
// reading it only when the Run is OK; a failed Run's TimeCell is its mark.

// ExtTucker compares Boolean CP against the Boolean Tucker extension on
// tensors whose components share mode-1 structure.
func ExtTucker(cfg Config) *Table {
	dim := scaleDim(48, cfg.Scale)
	t := &Table{
		Title:  fmt.Sprintf("Boolean Tucker vs CP (dim %d, blocks sharing mode-1 rows)", dim),
		Header: []string{"blocks", "CP error", "Tucker error", "core dims", "core ones"},
		Notes: []string{
			"blocks reuse one mode-1 index set, so Tucker folds the CP components into a smaller core",
		},
	}
	for _, nBlocks := range []int{2, 3, 4} {
		x := sharedStructureTensor(cfg.rng(), dim, nBlocks, dim/6)
		cfg.progress("ext-tucker: %d blocks", nBlocks)
		var res *dbtf.TuckerResult
		r := budgeted(cfg, "Tucker", "", x.NNZ(), func(ctx context.Context) (o outcome, err error) {
			res, err = dbtf.FactorizeTucker(ctx, x, dbtf.TuckerOptions{
				CPRank: nBlocks, MergeThreshold: 0.9, Machines: cfg.Machines,
				InitialSets: 4, Seed: cfg.Seed,
			})
			if err == nil {
				o.Error = res.Error
			}
			return o, err
		})
		if !r.OK() {
			t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", nBlocks), r.TimeCell(), r.TimeCell(), "-", "-"})
			continue
		}
		p, q, s := res.Core.Dims()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", nBlocks),
			fmt.Sprintf("%d", res.CPError),
			fmt.Sprintf("%d", res.Error),
			fmt.Sprintf("%dx%dx%d", p, q, s),
			fmt.Sprintf("%d", res.Core.NNZ()),
		})
	}
	return t
}

// ExtRankSelect runs MDL rank selection against tensors with known
// planted ranks.
func ExtRankSelect(cfg Config) *Table {
	dim := scaleDim(40, cfg.Scale)
	t := &Table{
		Title:  fmt.Sprintf("MDL rank selection (dim %d, disjoint planted blocks)", dim),
		Header: []string{"planted rank", "selected rank", "model bits", "baseline bits"},
	}
	for _, planted := range []int{1, 2, 4} {
		x := cube(dim, diagonalBlocks(dim, planted))
		cfg.progress("ext-rankselect: planted rank %d", planted)
		var sel *dbtf.RankSelection
		r := budgeted(cfg, "SelectRank", "", x.NNZ(), func(ctx context.Context) (o outcome, err error) {
			sel, err = dbtf.SelectRank(ctx, x, dbtf.Options{
				Machines: cfg.Machines, InitialSets: 4, Seed: cfg.Seed,
			}, 8)
			if err != nil {
				return o, err
			}
			return dbtfOutcome(sel.Result, nil) // the selected rank's run
		})
		if !r.OK() {
			t.Rows = append(t.Rows, []string{fmt.Sprintf("%d", planted), r.TimeCell(), "-", "-"})
			continue
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", planted),
			fmt.Sprintf("%d", sel.Rank),
			fmt.Sprintf("%.0f", sel.Bits[sel.Rank-1]),
			fmt.Sprintf("%.0f", sel.BaselineBits),
		})
	}
	return t
}

// ExtWalkNMergeMDL compares Walk'n'Merge's fixed-rank output against its
// MDL model-order selection on block tensors with noise.
func ExtWalkNMergeMDL(cfg Config) *Table {
	dim := scaleDim(40, cfg.Scale)
	t := &Table{
		Title:  fmt.Sprintf("Walk'n'Merge MDL model-order selection (dim %d)", dim),
		Header: []string{"planted blocks", "noise nnz", "selected blocks", "error"},
		Notes:  []string{"MDL keeps the planted blocks and rejects noise without a rank parameter"},
	}
	for _, planted := range []int{2, 3} {
		rng := cfg.rng()
		coords := diagonalBlocks(dim, planted)
		noise := dim * dim / 16
		for n := 0; n < noise; n++ {
			coords = append(coords, dbtf.Coord{I: rng.Intn(dim), J: rng.Intn(dim), K: rng.Intn(dim)})
		}
		x := cube(dim, coords)
		cfg.progress("ext-wnm-mdl: %d planted blocks", planted)
		blocks := 0
		r := budgeted(cfg, WalkNMerge, "mdl", x.NNZ(), func(ctx context.Context) (o outcome, err error) {
			res, err := dbtf.FactorizeWalkNMerge(ctx, x, dbtf.WalkNMergeOptions{
				MergeThreshold: 0.9, MDLSelect: true, Seed: cfg.Seed,
			})
			if err == nil {
				blocks, o.Error = len(res.Blocks), res.Error
			}
			return o, err
		})
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", planted), fmt.Sprintf("%d", noise),
			r.cell(fmt.Sprintf("%d", blocks)), r.ErrorCell(),
		})
	}
	return t
}
