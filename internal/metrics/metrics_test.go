package metrics

import (
	"math"
	"math/rand"
	"testing"

	"dbtf/internal/boolmat"
	"dbtf/internal/tensor"
)

func planted(seed int64, i, j, k, r int, density float64) (*tensor.Tensor, *boolmat.FactorMatrix, *boolmat.FactorMatrix, *boolmat.FactorMatrix) {
	rng := rand.New(rand.NewSource(seed))
	a := boolmat.RandomFactor(rng, i, r, density)
	b := boolmat.RandomFactor(rng, j, r, density)
	c := boolmat.RandomFactor(rng, k, r, density)
	return tensor.Reconstruct(a, b, c), a, b, c
}

func TestRelativeErrorPerfect(t *testing.T) {
	x, a, b, c := planted(1, 10, 10, 10, 2, 0.3)
	if got := RelativeError(x, a, b, c); got != 0 {
		t.Fatalf("perfect factors: relative error %v", got)
	}
}

func TestRelativeErrorTrivial(t *testing.T) {
	x, _, _, _ := planted(2, 10, 10, 10, 2, 0.3)
	zero := boolmat.NewFactor(10, 2)
	if got := RelativeError(x, zero, zero, zero); got != 1 {
		t.Fatalf("all-zero factors: relative error %v, want 1", got)
	}
}

func TestRelativeErrorEmptyTensor(t *testing.T) {
	x := tensor.New(4, 4, 4)
	zero := boolmat.NewFactor(4, 1)
	if got := RelativeError(x, zero, zero, zero); got != 0 {
		t.Fatalf("empty tensor + empty factors: %v", got)
	}
	// A nonempty reconstruction of an empty tensor has no normalizer: the
	// score is +Inf, never the raw error count (which would silently change
	// units — the 1-cell case used to coincide with ratio 1.0 and a larger
	// reconstruction would not).
	one := boolmat.NewFactor(4, 1)
	one.Set(0, 0, true)
	if got := RelativeError(x, one, one, one); !math.IsInf(got, 1) {
		t.Fatalf("empty tensor + 1-cell reconstruction: %v, want +Inf", got)
	}
	many := boolmat.NewFactor(4, 1)
	for r := 0; r < 4; r++ {
		many.Set(r, 0, true)
	}
	if got := RelativeError(x, many, many, many); !math.IsInf(got, 1) {
		t.Fatalf("empty truth + 64-cell reconstruction: %v, want +Inf", got)
	}
}

func TestPrecisionRecall(t *testing.T) {
	// x = {(0,0,0), (1,1,1)}; reconstruction covers (0,0,0) and (0,0,1).
	x := tensor.MustFromCoords(2, 2, 2, []tensor.Coord{{I: 0, J: 0, K: 0}, {I: 1, J: 1, K: 1}})
	a := boolmat.NewFactor(2, 1)
	b := boolmat.NewFactor(2, 1)
	c := boolmat.NewFactor(2, 1)
	a.Set(0, 0, true)
	b.Set(0, 0, true)
	c.Set(0, 0, true)
	c.Set(1, 0, true)
	p, r := PrecisionRecall(x, a, b, c)
	if p != 0.5 || r != 0.5 {
		t.Fatalf("precision %v recall %v, want 0.5/0.5", p, r)
	}
}

func TestPrecisionRecallEmptyReconstruction(t *testing.T) {
	x := tensor.MustFromCoords(2, 2, 2, []tensor.Coord{{I: 0, J: 0, K: 0}})
	zero := boolmat.NewFactor(2, 1)
	p, r := PrecisionRecall(x, zero, zero, zero)
	if p != 1 || r != 0 {
		t.Fatalf("empty reconstruction: precision %v recall %v, want 1/0", p, r)
	}
}

func TestFactorSimilarityIdentical(t *testing.T) {
	_, a, b, c := planted(3, 8, 9, 10, 3, 0.3)
	if got := FactorSimilarity(a, b, c, a, b, c); got != 1 {
		t.Fatalf("self similarity %v, want 1", got)
	}
}

func TestFactorSimilarityPermutationInvariant(t *testing.T) {
	_, a, b, c := planted(4, 8, 9, 10, 3, 0.3)
	perm := []int{2, 0, 1}
	ap, bp, cp := a.PermuteColumns(perm), b.PermuteColumns(perm), c.PermuteColumns(perm)
	if got := FactorSimilarity(a, b, c, ap, bp, cp); got != 1 {
		t.Fatalf("permuted similarity %v, want 1", got)
	}
}

func TestFactorSimilarityDisjoint(t *testing.T) {
	a1 := boolmat.NewFactor(4, 1)
	a1.Set(0, 0, true)
	a2 := boolmat.NewFactor(4, 1)
	a2.Set(1, 0, true)
	if got := FactorSimilarity(a1, a1, a1, a2, a2, a2); got != 0 {
		t.Fatalf("disjoint similarity %v, want 0", got)
	}
}

func TestFactorSimilarityRankMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	FactorSimilarity(boolmat.NewFactor(2, 1), boolmat.NewFactor(2, 1), boolmat.NewFactor(2, 1),
		boolmat.NewFactor(2, 2), boolmat.NewFactor(2, 2), boolmat.NewFactor(2, 2))
}

func TestRecoveryErrorBeatsNoisyFitForTrueFactors(t *testing.T) {
	// For the true factors, recovery error — the relative error against
	// the clean tensor — is 0 even though the relative error against a
	// noisy tensor is not.
	x, a, b, c := planted(5, 12, 12, 12, 2, 0.3)
	if RelativeError(x, a, b, c) != 0 {
		t.Fatal("true factors have nonzero recovery error")
	}
	noisy := tensor.MustFromCoords(12, 12, 12, append([]tensor.Coord{{I: 11, J: 11, K: 11}}, x.Coords()...))
	if RelativeError(noisy, a, b, c) == 0 {
		t.Fatal("noisy tensor unexpectedly fits perfectly")
	}
}

func TestJaccardBothEmpty(t *testing.T) {
	a := boolmat.NewFactor(5, 1)
	if got := jaccard(a, 0, a, 0); got != 1 {
		t.Fatalf("empty-empty jaccard %v, want 1", got)
	}
}

func TestFactorSimilarityZeroRank(t *testing.T) {
	z := boolmat.NewFactor(5, 0)
	if got := FactorSimilarity(z, z, z, z, z, z); got != 1 {
		t.Fatalf("zero-rank similarity %v, want 1 (empty factorizations are identical)", got)
	}
}

func TestPrecisionRecallEmptyTensor(t *testing.T) {
	// Empty reference, nonzero reconstruction: every reconstructed cell is
	// a false positive (precision 0) while recall's 0/0 convention is 1.
	x := tensor.New(2, 2, 2)
	one := boolmat.NewFactor(2, 1)
	one.Set(0, 0, true)
	p, r := PrecisionRecall(x, one, one, one)
	if p != 0 || r != 1 {
		t.Fatalf("empty tensor: precision %v recall %v, want 0/1", p, r)
	}
}

func TestPrecisionRecallBothEmpty(t *testing.T) {
	x := tensor.New(3, 3, 3)
	zero := boolmat.NewFactor(3, 2)
	p, r := PrecisionRecall(x, zero, zero, zero)
	if p != 1 || r != 1 {
		t.Fatalf("both empty: precision %v recall %v, want 1/1", p, r)
	}
}

func TestJaccardLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	jaccard(boolmat.NewFactor(3, 1), 0, boolmat.NewFactor(4, 1), 0)
}

func TestFactorSimilarityGreedyValue(t *testing.T) {
	// Rank 2: component 0 of the estimate matches component 1 of the
	// reference exactly, the remaining pair is disjoint. Greedy matching
	// takes the exact pair first, so the mean is (1 + 0) / 2.
	ref := boolmat.NewFactor(4, 2)
	ref.Set(0, 0, true)
	ref.Set(1, 1, true)
	est := boolmat.NewFactor(4, 2)
	est.Set(1, 0, true)
	est.Set(2, 1, true)
	if got := FactorSimilarity(ref, ref, ref, est, est, est); got != 0.5 {
		t.Fatalf("greedy similarity %v, want 0.5", got)
	}
}
