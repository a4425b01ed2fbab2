package dbtf_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"dbtf"
)

// The paper's Section III-C (row-summation caching) describes a pure
// optimization: it changes how Boolean row summations are computed, never
// their values. With identical seeds the ablation path must therefore
// produce bit-for-bit identical factor matrices and errors. These
// differential tests pin that equivalence; the one for Section III-D
// (vertical vs horizontal partitioning) lives with the horizontal strawman
// in internal/experiments.

func diffTensor(t *testing.T, seed int64) *dbtf.Tensor {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	truth, _ := dbtf.TensorFromRandomFactors(rng, 20, 16, 18, 3, 0.3)
	return dbtf.AddNoise(rng, truth, 0.1, 0.1)
}

func assertIdentical(t *testing.T, seed int64, label string, a, b *dbtf.Result) {
	t.Helper()
	if a.Error != b.Error {
		t.Errorf("seed %d: %s error %d != baseline %d", seed, label, b.Error, a.Error)
	}
	if !a.A.Equal(b.A) || !a.B.Equal(b.B) || !a.C.Equal(b.C) {
		t.Errorf("seed %d: %s factors differ from baseline", seed, label)
	}
	if a.Iterations != b.Iterations {
		t.Errorf("seed %d: %s ran %d iterations, baseline %d", seed, label, b.Iterations, a.Iterations)
	}
}

func TestDiffCacheAblationIdentical(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		x := diffTensor(t, seed)
		opt := dbtf.Options{Rank: 4, Machines: 2, MaxIter: 5, Seed: seed}
		cached, err := dbtf.Factorize(context.Background(), x, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.NoCache = true
		uncached, err := dbtf.Factorize(context.Background(), x, opt)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, seed, "NoCache", cached, uncached)
		if seed != 1 {
			continue
		}
		// The deprecated ThreadsPerMachine field is inert: the whole result
		// but the wall-clock counters equals the run that leaves it unset.
		opt.NoCache, opt.ThreadsPerMachine = false, 4
		shim, err := dbtf.Factorize(context.Background(), x, opt)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, seed, "ThreadsPerMachine=4", cached, shim)
		if got, want := fmt.Sprint(shim.InitialErrors, shim.IterationErrors), fmt.Sprint(cached.InitialErrors, cached.IterationErrors); got != want {
			t.Errorf("ThreadsPerMachine=4 error trajectories %s, unset %s", got, want)
		}
		bs, ss := cached.Stats, shim.Stats
		bs.ComputeNanos, bs.NetworkNanos, bs.DriverNanos, bs.TaskNanos = 0, 0, 0, 0
		ss.ComputeNanos, ss.NetworkNanos, ss.DriverNanos, ss.TaskNanos = 0, 0, 0, 0
		if bs != ss {
			t.Errorf("ThreadsPerMachine=4 stats %+v, unset %+v", ss, bs)
		}
	}
}

// TestDiffPartitionCountInvariant: the number of vertical partitions is a
// placement decision, not an algorithmic one — results must not depend on
// it.
func TestDiffPartitionCountInvariant(t *testing.T) {
	x := diffTensor(t, 1)
	var baseline *dbtf.Result
	for _, parts := range []int{1, 2, 5} {
		res, err := dbtf.Factorize(context.Background(), x, dbtf.Options{
			Rank: 4, Machines: 2, Partitions: parts, MaxIter: 5, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if baseline == nil {
			baseline = res
			continue
		}
		assertIdentical(t, 1, "partition count", baseline, res)
	}
}

// TestDiffDeltaKernelRanksAndGroupBits sweeps factorization ranks across
// the whole uint64-mask range and both extreme cache splits (V=2: many
// small groups, heavy occlusion in the delta kernels; V=15: one group for
// most ranks). The word-parallel delta path must stay bit-identical to
// the naive uncached reference at every combination.
func TestDiffDeltaKernelRanksAndGroupBits(t *testing.T) {
	ranks := []int{1, 2, 5, 8, 16, 31, 33, 48, 64}
	for _, rank := range ranks {
		for _, gb := range []int{2, 15} {
			seed := int64(rank*100 + gb)
			rng := rand.New(rand.NewSource(seed))
			truth, _ := dbtf.TensorFromRandomFactors(rng, 13, 11, 12, 3, 0.3)
			x := dbtf.AddNoise(rng, truth, 0.1, 0.1)
			opt := dbtf.Options{
				Rank: rank, Machines: 2, MaxIter: 2, MinIter: 2,
				CacheGroupBits: gb, Seed: seed,
			}
			cached, err := dbtf.Factorize(context.Background(), x, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.NoCache = true
			uncached, err := dbtf.Factorize(context.Background(), x, opt)
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, seed, fmt.Sprintf("rank=%d V=%d", rank, gb), cached, uncached)
		}
	}
}
