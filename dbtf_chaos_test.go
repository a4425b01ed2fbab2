package dbtf_test

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"dbtf"
	"dbtf/internal/trace"
)

// TestChaosFaultsArePriced is the fault-tolerance regression: under a
// seeded fault plan injecting failures and panics at rates up to 0.2, the
// decomposition must survive the injected faults through per-task retry,
// and they cost simulated time. That its factors are bit-identical to the
// fault-free run's is internal/core's TestScenarioPinned row "failures and
// panics".
func TestChaosFaultsArePriced(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	truth, _ := dbtf.TensorFromRandomFactors(rng, 24, 24, 24, 4, 0.25)
	x := dbtf.AddNoise(rng, truth, 0.1, 0.1)
	opt := dbtf.Options{Rank: 6, Machines: 4, MaxIter: 4, MinIter: 4, Seed: 1}

	clean, err := dbtf.Factorize(context.Background(), x, opt)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Stats.InjectedFaults != 0 || clean.Stats.Retries != 0 {
		t.Fatalf("fault-free run reports faults: %+v", clean.Stats)
	}

	opt.Faults = &dbtf.FaultPlan{
		Seed:        42,
		FailureRate: 0.2,
		PanicRate:   0.05,
	}
	chaotic, err := dbtf.Factorize(context.Background(), x, opt)
	if err != nil {
		t.Fatalf("decomposition did not survive injected faults: %v", err)
	}

	if chaotic.Stats.InjectedFaults < 10 {
		t.Errorf("InjectedFaults = %d, want >= 10 (workload too small for the regression)",
			chaotic.Stats.InjectedFaults)
	}
	if chaotic.Stats.Retries == 0 {
		t.Error("Stats.Retries = 0 under a 0.2 failure rate")
	}
	// Injected faults must be visible in the simulated clock: every wasted
	// attempt and the scheduling round its relaunch waits for is charged
	// there.
	if chaotic.SimTime <= clean.SimTime {
		t.Errorf("SimTime under chaos %v <= fault-free %v; recovery cost not priced",
			chaotic.SimTime, clean.SimTime)
	}
}

// TestCancellationMidDecomposition: a context cancelled while iterations
// are in flight must surface context.Canceled promptly and leak no
// goroutines.
func TestCancellationMidDecomposition(t *testing.T) {
	before := runtime.NumGoroutine()

	rng := rand.New(rand.NewSource(3))
	truth, _ := dbtf.TensorFromRandomFactors(rng, 32, 32, 32, 4, 0.25)
	x := dbtf.AddNoise(rng, truth, 0.1, 0.1)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelled := false
	start := time.Now()
	_, err := dbtf.Factorize(ctx, x, dbtf.Options{
		Rank: 8, Machines: 4, MaxIter: 50, MinIter: 50, Seed: 3,
		// Cancelling at the end of the first of 50 iterations guarantees
		// the context dies mid-decomposition with work left.
		Tracer: dbtf.NewTracer(sinkFunc(func(ev *dbtf.TraceEvent) {
			if ev.Type == trace.IterationEnd && !cancelled {
				cancelled = true
				cancel()
			}
		})),
	})
	elapsed := time.Since(start)

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !cancelled {
		t.Fatal("decomposition finished without an iteration_end event")
	}
	if elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v to surface", elapsed)
	}

	// The engine runs stages synchronously (workers are joined before
	// a stage returns), so no goroutines may outlive the call. Allow the
	// runtime a moment to retire exiting goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if after := runtime.NumGoroutine(); after <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after cancellation",
				before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDeadlineExpiry: deadline expiry surfaces as DeadlineExceeded, the
// same way the experiments harness marks o.o.t. runs.
func TestDeadlineExpiry(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	truth, _ := dbtf.TensorFromRandomFactors(rng, 32, 32, 32, 4, 0.25)
	x := dbtf.AddNoise(rng, truth, 0.1, 0.1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := dbtf.Factorize(ctx, x, dbtf.Options{
		Rank: 8, Machines: 4, MaxIter: 200, MinIter: 200, Seed: 4,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
