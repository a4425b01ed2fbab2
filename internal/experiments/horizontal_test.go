package experiments

import (
	"context"
	"math/rand"
	"testing"

	"dbtf"
)

// The paper's Section III-D (vertical vs horizontal partitioning) describes
// a pure placement decision: it changes where Boolean row summations are
// computed, never their values. From the same seeds and for the same number
// of sweeps the strawman must therefore produce bit-for-bit the factor
// matrices and error the engine does.

// bothPartitionings factorizes x vertically (the engine) and horizontally
// (the strawman) from the top-fiber seeds for exactly iters sweeps.
func bothPartitionings(t *testing.T, x *dbtf.Tensor, machines, rank, parts, iters int) (vertical, horizontal *dbtf.Result) {
	t.Helper()
	vertical, err := dbtf.Factorize(context.Background(), x, dbtf.Options{
		Rank: rank, Machines: machines, Partitions: parts, MaxIter: iters, MinIter: iters, Init: dbtf.InitTopFiber,
	})
	if err != nil {
		t.Fatal(err)
	}
	horizontal, err = factorizeHorizontal(context.Background(), x, machines, rank, parts, iters)
	if err != nil {
		t.Fatal(err)
	}
	return vertical, horizontal
}

func assertSameFactors(t *testing.T, label string, v, h *dbtf.Result) {
	t.Helper()
	if v.Error != h.Error {
		t.Errorf("%s: horizontal error %d != vertical %d", label, h.Error, v.Error)
	}
	if !v.A.Equal(h.A) || !v.B.Equal(h.B) || !v.C.Equal(h.C) {
		t.Errorf("%s: horizontal factors differ from vertical", label)
	}
	if v.Iterations != h.Iterations {
		t.Errorf("%s: horizontal ran %d iterations, vertical %d", label, h.Iterations, v.Iterations)
	}
}

func TestHorizontalMatchesVertical(t *testing.T) {
	x := dbtf.RandomTensor(rand.New(rand.NewSource(11)), 9, 10, 11, 0.1)
	v, h := bothPartitionings(t, x, 3, 4, 3, 2)
	assertSameFactors(t, "9x10x11", v, h)
}

func TestHorizontalCollectsMoreTraffic(t *testing.T) {
	x := dbtf.RandomTensor(rand.New(rand.NewSource(12)), 20, 20, 20, 0.1)
	v, h := bothPartitionings(t, x, 4, 4, 4, 2)
	if h.Stats.CollectedBytes <= v.Stats.CollectedBytes*4 {
		t.Fatalf("horizontal collect traffic %d not ≫ vertical %d", h.Stats.CollectedBytes, v.Stats.CollectedBytes)
	}
}

// TestDiffPartitioningAblationIdentical sweeps planted noisy tensors and
// partition counts 3–6, the last two more than rank 4 lets the strawman use.
func TestDiffPartitioningAblationIdentical(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		truth, _ := dbtf.TensorFromRandomFactors(rng, 20, 16, 18, 3, 0.3)
		x := dbtf.AddNoise(rng, truth, 0.1, 0.1)
		v, h := bothPartitionings(t, x, 2, 4, 2+int(seed), 5)
		assertSameFactors(t, "planted", v, h)
	}
}
