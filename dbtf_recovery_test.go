package dbtf_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"dbtf"
	"dbtf/internal/trace"
)

// TestMachineLossChaosSweep is the executor-loss regression: under seeded
// machine-loss schedules at rates up to 0.2 — with and without rejoin —
// the decomposition must reassign the dead machines' work to survivors,
// rebuild their caches, and still produce bit-identical factors and error
// to the loss-free run; losses may only cost (simulated) time and traffic.
func TestMachineLossChaosSweep(t *testing.T) {
	before := runtime.NumGoroutine()

	rng := rand.New(rand.NewSource(5))
	truth, _ := dbtf.TensorFromRandomFactors(rng, 24, 24, 24, 4, 0.25)
	x := dbtf.AddNoise(rng, truth, 0.1, 0.1)
	opt := dbtf.Options{Rank: 6, Machines: 4, MaxIter: 4, MinIter: 4, Seed: 5}

	clean, err := dbtf.Factorize(context.Background(), x, opt)
	if err != nil {
		t.Fatal(err)
	}

	var totalLosses, totalRecoveries int64
	for _, tc := range []struct {
		rate   float64
		rejoin int
	}{{0.02, 0}, {0.1, 3}, {0.2, 2}} {
		t.Run(fmt.Sprintf("loss rate %v rejoin %d", tc.rate, tc.rejoin), func(t *testing.T) {
			opt := opt
			opt.Faults = &dbtf.FaultPlan{
				Seed:               77,
				MachineLossRate:    tc.rate,
				MachineRejoinAfter: tc.rejoin,
			}
			res, err := dbtf.Factorize(context.Background(), x, opt)
			if err != nil {
				t.Fatalf("decomposition did not survive machine losses: %v", err)
			}
			if res.Error != clean.Error {
				t.Errorf("error under machine loss %d != loss-free %d", res.Error, clean.Error)
			}
			if !res.A.Equal(clean.A) || !res.B.Equal(clean.B) || !res.C.Equal(clean.C) {
				t.Error("factors under machine loss differ from the loss-free run")
			}
			if res.Stats.Recoveries < res.Stats.MachineLosses {
				t.Errorf("Recoveries %d < MachineLosses %d: every loss in a completed run must be recovered",
					res.Stats.Recoveries, res.Stats.MachineLosses)
			}
			if res.Stats.MachineLosses > 0 {
				// Recovery is priced: re-shipped partitions and re-fetched
				// broadcast state must exceed the loss-free traffic.
				if res.Stats.ShuffledBytes <= clean.Stats.ShuffledBytes {
					t.Errorf("ShuffledBytes %d <= loss-free %d despite %d machine losses",
						res.Stats.ShuffledBytes, clean.Stats.ShuffledBytes, res.Stats.MachineLosses)
				}
				if res.Stats.BroadcastBytes <= clean.Stats.BroadcastBytes {
					t.Errorf("BroadcastBytes %d <= loss-free %d despite %d machine losses",
						res.Stats.BroadcastBytes, clean.Stats.BroadcastBytes, res.Stats.MachineLosses)
				}
			}
			totalLosses += res.Stats.MachineLosses
			totalRecoveries += res.Stats.Recoveries
		})
	}
	if totalLosses == 0 || totalRecoveries == 0 {
		t.Fatalf("sweep injected %d losses / %d recoveries; workload too small for the regression",
			totalLosses, totalRecoveries)
	}

	// The engine joins every worker before each stage returns, so the
	// sweep must leave no goroutines behind.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before sweep, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCheckpointResumePublicAPI exercises the kill/resume invariant through
// the public Options surface: a run killed after its second checkpoint and
// resumed must reproduce the uninterrupted result bit for bit.
func TestCheckpointResumePublicAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	truth, _ := dbtf.TensorFromRandomFactors(rng, 20, 20, 20, 3, 0.25)
	x := dbtf.AddNoise(rng, truth, 0.1, 0.1)
	base := dbtf.Options{Rank: 4, Machines: 3, MaxIter: 5, MinIter: 5, Seed: 6}

	full := base
	full.CheckpointDir = t.TempDir()
	uninterrupted, err := dbtf.Factorize(context.Background(), x, full)
	if err != nil {
		t.Fatal(err)
	}
	if uninterrupted.Stats.CheckpointBytes <= 0 {
		t.Fatalf("CheckpointBytes = %d with checkpointing on, want > 0", uninterrupted.Stats.CheckpointBytes)
	}

	killed := base
	killed.CheckpointDir = t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	killed.Tracer = dbtf.NewTracer(sinkFunc(func(ev *dbtf.TraceEvent) {
		if ev.Type == trace.Checkpoint {
			if seen++; seen == 2 {
				cancel()
			}
		}
	}))
	if _, err := dbtf.Factorize(ctx, x, killed); err == nil {
		t.Fatal("killed run finished; cancellation did not take")
	}

	killed.Tracer = nil
	killed.Resume = true
	resumed, err := dbtf.Factorize(context.Background(), x, killed)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Error != uninterrupted.Error ||
		!resumed.A.Equal(uninterrupted.A) || !resumed.B.Equal(uninterrupted.B) || !resumed.C.Equal(uninterrupted.C) {
		t.Fatal("resumed run is not bit-identical to the uninterrupted run")
	}
}
