package core

import (
	"testing"

	"dbtf/internal/boolmat"
	"dbtf/internal/tensor"
)

// serially is executor.setup's each on one machine: a plain loop.
func serially(n int, fn func(m int) error) error {
	for m := 0; m < n; m++ {
		if err := fn(m); err != nil {
			return err
		}
	}
	return nil
}

// TestCommitCountsTieBreakAsFlipNotGain: a row whose entry is 1 and whose
// two candidate errors tie (t == 0) is cleared — ties go to 0 — so the entry
// changes and the objective does not: one flip, carried change 0, and the
// recount agrees. The tensor is one rank-1 block of two cells, b∘c, of which
// row 0 holds exactly one.
func TestCommitCountsTieBreakAsFlipNotGain(t *testing.T) {
	x := tensor.MustFromCoords(2, 2, 1, []tensor.Coord{{I: 0, J: 0, K: 0}})
	a, b, c := boolmat.NewFactor(2, 1), boolmat.NewFactor(2, 1), boolmat.NewFactor(1, 1)
	a.Set(0, 0, true)
	b.Set(0, 0, true)
	b.Set(1, 0, true)
	c.Set(0, 0, true)
	before := tensor.ReconstructError(x, a, b, c)
	d := newTestDecomposition(t, x, Options{Rank: 1, Partitions: 2}, 2)
	update := updateMode(t, d, 0, a, b, c)
	if a.RowMask(0) != 0 {
		t.Fatalf("row 0 kept its entry on a tie: ties go to 0")
	}
	after := tensor.ReconstructError(x, a, b, c)
	if want := (committed{objective: 0, flips: 1}); update != want || after != before {
		t.Errorf("the tie-break commit reports %+v, want %+v; the recount went %d → %d", update, want, before, after)
	}
}
