package dbtf_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dbtf"
)

// sinkFunc adapts a function to dbtf.TraceSink. Tracer.Emit calls its sink
// synchronously on the emitting goroutine, so a test that acts from here
// (cancels the context, kills a worker) does so at a deterministic point
// of the run.
type sinkFunc func(*dbtf.TraceEvent)

func (f sinkFunc) Write(ev *dbtf.TraceEvent) error { f(ev); return nil }
func (sinkFunc) Close() error                      { return nil }

func TestFactorizeQuickstart(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, planted := dbtf.TensorFromRandomFactors(rng, 24, 24, 24, 3, 0.2)
	res, err := dbtf.Factorize(context.Background(), x, dbtf.Options{Rank: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.RelativeError >= 1 {
		t.Fatalf("relative error %v not better than trivial", res.RelativeError)
	}
	if res.Error != res.ReconstructError(x) {
		t.Fatal("Result.Error inconsistent with Factors.ReconstructError")
	}
	_ = planted
}

func TestFactorizeRespectsContext(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := dbtf.RandomTensor(rng, 64, 64, 64, 0.05)
	// A deadline already past cancels the context before WithDeadline
	// returns; a timer's may not have fired yet when Factorize starts.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := dbtf.Factorize(ctx, x, dbtf.Options{Rank: 8, MaxIter: 50}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestThreadsPerMachineInert: the deprecated ThreadsPerMachine field is
// inert — the whole result but the wall-clock counters equals the run that
// leaves it unset.
func TestThreadsPerMachineInert(t *testing.T) {
	x := diffTensor(t, 1)
	opt := dbtf.Options{Rank: 4, Machines: 2, MaxIter: 5, Seed: 1}
	unset, err := dbtf.Factorize(context.Background(), x, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.ThreadsPerMachine = 4
	shim, err := dbtf.Factorize(context.Background(), x, opt)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, 1, "ThreadsPerMachine=4", unset, shim)
	if got, want := fmt.Sprint(shim.InitialErrors, shim.IterationErrors), fmt.Sprint(unset.InitialErrors, unset.IterationErrors); got != want {
		t.Errorf("ThreadsPerMachine=4 error trajectories %s, unset %s", got, want)
	}
	us, ss := unset.Stats, shim.Stats
	us.ComputeNanos, us.NetworkNanos, us.DriverNanos, us.TaskNanos = 0, 0, 0, 0
	ss.ComputeNanos, ss.NetworkNanos, ss.DriverNanos, ss.TaskNanos = 0, 0, 0, 0
	if us != ss {
		t.Errorf("ThreadsPerMachine=4 stats %+v, unset %+v", ss, us)
	}
}

// TestPropRelativeErrorBounded: the greedy update can always fall back to
// the all-zero column, so the fit never gets worse than the empty
// factorization (relative error 1.0).
func TestPropRelativeErrorBounded(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		x := dbtf.RandomTensor(rng, 12, 10, 14, 0.1)
		if x.NNZ() == 0 {
			continue
		}
		res, err := dbtf.Factorize(context.Background(), x, dbtf.Options{Rank: 3, Machines: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.RelativeError > 1.0 {
			t.Errorf("seed %d: relative error %v > 1.0", seed, res.RelativeError)
		}
	}
}

func TestFactorizeValidatesRank(t *testing.T) {
	x := dbtf.NewTensor(4, 4, 4)
	if _, err := dbtf.Factorize(context.Background(), x, dbtf.Options{Rank: 0}); err == nil {
		t.Fatal("rank 0 accepted")
	}
	if _, err := dbtf.Factorize(context.Background(), x, dbtf.Options{Rank: dbtf.MaxRank + 1}); err == nil {
		t.Fatal("rank > MaxRank accepted")
	}
}

// TestBadOptionsAreErrorsNotPanics: everything the cluster and the engine
// refuse must come back from the public API as an error, from Validate
// (before any work) and from Factorize alike — never as a panic out of
// cluster.New.
func TestBadOptionsAreErrorsNotPanics(t *testing.T) {
	x := dbtf.NewTensor(4, 4, 4)
	cases := map[string]dbtf.Options{
		"negative machines":            {Rank: 2, Machines: -1},
		"fault rate above 1":           {Rank: 2, Faults: &dbtf.FaultPlan{FailureRate: 2}},
		"machine-loss rate 1":          {Rank: 2, Faults: &dbtf.FaultPlan{MachineLossRate: 1}},
		"negative rejoin":              {Rank: 2, Faults: &dbtf.FaultPlan{MachineRejoinAfter: -1}},
		"faults with workers":          {Rank: 2, Faults: &dbtf.FaultPlan{}, Workers: []string{"127.0.0.1:1"}},
		"resume without checkpointdir": {Rank: 2, Resume: true},
		"rank zero":                    {},
	}
	for name, opt := range cases {
		if err := opt.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, opt)
		}
		if _, err := dbtf.Factorize(context.Background(), x, opt); err == nil {
			t.Errorf("%s: Factorize accepted %+v", name, opt)
		}
	}
	if err := (dbtf.Options{Rank: 2, Faults: &dbtf.FaultPlan{FailureRate: 0.1}}).Validate(); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
}

func TestAllThreeMethodsAgreeOnBlockTensor(t *testing.T) {
	// A single dense block is exactly rank 1; every method must fit it
	// perfectly.
	var coords []dbtf.Coord
	for i := 2; i < 10; i++ {
		for j := 1; j < 8; j++ {
			for k := 3; k < 9; k++ {
				coords = append(coords, dbtf.Coord{I: i, J: j, K: k})
			}
		}
	}
	x, err := dbtf.TensorFromCoords(12, 12, 12, coords)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	d, err := dbtf.Factorize(ctx, x, dbtf.Options{Rank: 1, InitialSets: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.Error != 0 {
		t.Errorf("DBTF error %d", d.Error)
	}

	b, err := dbtf.FactorizeBCPALS(ctx, x, dbtf.BCPALSOptions{Rank: 1})
	if err != nil {
		t.Fatal(err)
	}
	if b.Error != 0 {
		t.Errorf("BCP_ALS error %d", b.Error)
	}

	w, err := dbtf.FactorizeWalkNMerge(ctx, x, dbtf.WalkNMergeOptions{Seed: 1, MergeThreshold: 0.99})
	if err != nil {
		t.Fatal(err)
	}
	if w.Error != 0 {
		t.Errorf("Walk'n'Merge error %d", w.Error)
	}
}

func TestFactorsReconstructRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, f := dbtf.TensorFromRandomFactors(rng, 10, 10, 10, 2, 0.3)
	if !f.Reconstruct().Equal(x) {
		t.Fatal("Factors.Reconstruct differs from generator output")
	}
	if dbtf.RelativeError(x, f) != 0 {
		t.Fatal("planted factors have nonzero relative error")
	}
	p, r := dbtf.PrecisionRecall(x, f)
	if p != 1 || r != 1 {
		t.Fatalf("precision %v recall %v for exact factors", p, r)
	}
	if dbtf.FactorSimilarity(f, f) != 1 {
		t.Fatal("self similarity != 1")
	}
}

func TestStandinDatasets(t *testing.T) {
	ds := dbtf.StandinDatasets(rand.New(rand.NewSource(4)), 0.25)
	if len(ds) != 6 {
		t.Fatalf("%d datasets", len(ds))
	}
}

func TestNoiseHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, _ := dbtf.TensorFromRandomFactors(rng, 12, 12, 12, 2, 0.3)
	if x.NNZ() == 0 {
		t.Skip("degenerate")
	}
	noisy := dbtf.AddNoise(rng, x, 0.1, 0.05)
	if noisy.Equal(x) {
		t.Fatal("noise had no effect")
	}
}

func TestFactorizeStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := dbtf.RandomTensor(rng, 16, 16, 16, 0.05)
	res, err := dbtf.Factorize(context.Background(), x, dbtf.Options{Rank: 2, Seed: 1, Machines: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ShuffledBytes == 0 || res.Stats.BroadcastBytes == 0 || res.Stats.CollectedBytes == 0 {
		t.Fatalf("traffic stats not populated: %+v", res.Stats)
	}
	if res.SimTime <= 0 || res.WallTime <= 0 {
		t.Fatalf("timings not populated: sim=%v wall=%v", res.SimTime, res.WallTime)
	}
}
