package core

import (
	"math/bits"
	"runtime/pprof"

	"dbtf/internal/bitvec"
	"dbtf/internal/partition"
)

// updateFactorHorizontal updates a factor matrix under horizontal
// partitioning of the Khatri–Rao product: partitions own contiguous ranges
// of the rank dimension instead of column ranges of the unfolded tensor.
//
// This is the design Section III-D rejects, implemented for the
// partitioning ablation. Its two predicted drawbacks are visible directly
// in the code: every Boolean row summation must combine per-partition
// partial summations through the driver (each partial is a full
// Q-bit vector, so the collected traffic per column is N·P·2·Q/8 bytes
// instead of N·P·2·8), and the level of parallelism is capped by the rank,
// which is usually far smaller than the tensor dimensionalities.
func (d *decomposition) updateFactorHorizontal(modeIdx int) error {
	role := modeRoles[modeIdx]
	mode, px := role.name, d.ex.px[modeIdx]
	a, mf, ms := d.ex.f[role.upd], d.ex.f[role.pvm], d.ex.f[role.cached]
	r := d.ex.cfg.Rank
	n := d.ex.cfg.Partitions
	if n > r {
		n = r // horizontal partitioning cannot exceed the rank
	}
	ctx := pprof.WithLabels(d.ctx, pprof.Labels("mode", mode))
	p := a.Rows()
	q := px.NumCols

	// Rank rows of (C ⊙ B)ᵀ owned by each partition: contiguous ranges.
	rankLo := func(pi int) int { return pi * r / n }
	rankHi := func(pi int) int { return (pi + 1) * r / n }

	// Stage: each partition materializes its owned rows of (C ⊙ B)ᵀ as
	// full-width Q-bit vectors (row rr is mf's column rr Kronecker ms's
	// column rr).
	kron := make([]*bitvec.BitVec, r)
	err := d.cl.ForEachNamed(ctx, "kron:"+mode, n, func(pi int) error {
		for rr := rankLo(pi); rr < rankHi(pi); rr++ {
			v := bitvec.New(q)
			inner := ms.Column(rr).Indices()
			mf.Column(rr).Range(func(kk int) {
				base := kk * px.BlockSize
				for _, j := range inner {
					v.Set(base + j)
				}
			})
			kron[rr] = v
		}
		return nil
	})
	if err != nil {
		return err
	}

	// partials[pi][row][cand] is partition pi's Boolean summation of its
	// owned rank rows selected by the candidate mask.
	partials := make([][][2]*bitvec.BitVec, n)
	for pi := range partials {
		partials[pi] = make([][2]*bitvec.BitVec, p)
		for row := range partials[pi] {
			partials[pi][row] = [2]*bitvec.BitVec{bitvec.New(q), bitvec.New(q)}
		}
	}
	combined := bitvec.New(q)

	for c := 0; c < r; c++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		bit := uint64(1) << uint(c)
		err := d.cl.ForEachNamed(ctx, "eval-h:"+mode, n, func(pi int) error {
			owned := ownedMask(rankLo(pi), rankHi(pi))
			for row := 0; row < p; row++ {
				key0 := (a.RowMask(row) &^ bit) & owned
				key1 := (a.RowMask(row) | bit) & owned
				for cand, key := range [2]uint64{key0, key1} {
					dst := partials[pi][row][cand]
					dst.Zero()
					for m := key; m != 0; m &= m - 1 {
						dst.Or(kron[bits.TrailingZeros64(m)])
					}
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		// Every partial is a full Q-bit vector shipped to the driver: the
		// communication horizontal partitioning cannot avoid.
		d.cl.Collect(int64(n) * int64(p) * 2 * int64((q+7)/8))
		err = d.cl.DriverNamed(ctx, "commit-h:"+mode, func() {
			for row := 0; row < p; row++ {
				var errs [2]int64
				for cand := 0; cand < 2; cand++ {
					combined.Zero()
					for pi := 0; pi < n; pi++ {
						combined.Or(partials[pi][row][cand])
					}
					errs[cand] = horizontalRowError(px, row, combined)
				}
				a.Set(row, c, errs[1] < errs[0])
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func ownedMask(lo, hi int) uint64 {
	var m uint64
	for rr := lo; rr < hi; rr++ {
		m |= 1 << uint(rr)
	}
	return m
}

// horizontalRowError computes |x_row ⊕ sum| for a full-width candidate row
// by walking the row's nonzeros across all partitions' blocks.
func horizontalRowError(px *partition.Partitioned, row int, sum *bitvec.BitVec) int64 {
	nnz, overlap := 0, 0
	for _, part := range px.Parts {
		for _, b := range part.Blocks {
			rb := b.RowBits(row)
			nnz += len(rb)
			for _, off := range rb {
				if sum.Get(b.Lo + int(off)) {
					overlap++
				}
			}
		}
	}
	return int64(nnz + sum.OnesCount() - 2*overlap)
}
