package cluster

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// noNetwork removes modeled communication cost so simulated-clock tests
// observe only task time. Non-zero struct so
// DefaultNetwork is not substituted.
var noNetwork = NetworkModel{LatencyPerStage: 0, BytesPerSecond: 1e18}

func TestRetryRecoversTransientError(t *testing.T) {
	c := New(Config{Machines: 2, network: noNetwork})
	var attempts [4]atomic.Int64
	err := c.ForEachNamed(context.Background(), "", 4, func(task int) error {
		if attempts[task].Add(1) <= 2 && task == 1 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("transient error not retried away: %v", err)
	}
	if got := c.Stats().Retries; got != 2 {
		t.Fatalf("Retries = %d, want 2", got)
	}
}

func TestRetryRecoversTransientPanic(t *testing.T) {
	c := New(Config{Machines: 2, network: noNetwork})
	var attempts atomic.Int64
	err := c.ForEachNamed(context.Background(), "", 1, func(int) error {
		if attempts.Add(1) == 1 {
			panic("machine lost")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("transient panic not retried away: %v", err)
	}
	if got := attempts.Load(); got != 2 {
		t.Fatalf("task ran %d times, want 2", got)
	}
}

func TestRetriesExhausted(t *testing.T) {
	c := New(Config{Machines: 2, network: noNetwork})
	want := errors.New("permanent")
	var attempts atomic.Int64
	err := c.ForEachNamed(context.Background(), "", 1, func(int) error {
		attempts.Add(1)
		return want
	})
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want wrapped %v", err, want)
	}
	if got := attempts.Load(); got != maxAttempts {
		t.Fatalf("task ran %d times, want maxAttempts = %d", got, maxAttempts)
	}
}

// TestBackoffChargedToSimulatedClock pins what a retry costs, exactly: with
// the injected clock (every reading 1ms later, so every attempt costs 1ms)
// and a priced network, a stage whose tasks were relaunched k times in all
// advances the simulated clock by the slowest machine's attempts, plus one
// LatencyPerStage per relaunch on that machine, plus the stage's own network
// charge — and nothing sleeps: the wait is simulated time only.
func TestBackoffChargedToSimulatedClock(t *testing.T) {
	net := NetworkModel{LatencyPerStage: 3 * time.Millisecond, BytesPerSecond: 1e6}
	c := New(Config{Machines: 1, network: net})
	c.now = stepClock(time.Millisecond)
	c.parallelism = 1
	c.Collect(5000) // 5ms over the driver's 1 MB/s downlink
	// Task 0 succeeds on its third attempt, task 1 on its second, task 2 on
	// its first: six attempts, three relaunches, all on the one machine.
	failures := []int64{2, 1, 0}
	var attempts [3]atomic.Int64
	start := time.Now()
	if err := c.ForEachNamed(context.Background(), "", 3, func(task int) error {
		if attempts[task].Add(1) <= failures[task] {
			return errors.New("transient")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > 50*time.Millisecond {
		t.Fatalf("retrying slept %v of real time; the relaunch wait must be simulated only", wall)
	}
	const k = 3
	s := c.Stats()
	if s.Retries != k {
		t.Fatalf("Retries = %d, want %d", s.Retries, k)
	}
	spent := 6 * time.Millisecond
	if want := spent + k*net.LatencyPerStage; time.Duration(s.ComputeNanos) != want {
		t.Fatalf("ComputeNanos = %v, want %v: six 1ms attempts + %d relaunches at %v",
			time.Duration(s.ComputeNanos), want, k, net.LatencyPerStage)
	}
	stageNet := net.LatencyPerStage + 5*time.Millisecond
	if want := spent + k*net.LatencyPerStage + stageNet; c.SimElapsed() != want {
		t.Fatalf("SimElapsed = %v, want exactly %v", c.SimElapsed(), want)
	}
}

// TestFaultDrawSchedulePinned holds the fail/panic schedule to the one
// recorded before the straggler band was deleted (PR 25): the band sat above
// the other two in the draw, so every (Seed, stage, task, attempt) that
// failed or panicked then does so now. The grid counts and the order hash
// cover 1200 draws.
func TestFaultDrawSchedulePinned(t *testing.T) {
	p := &FaultPlan{Seed: 42, FailureRate: 0.2, PanicRate: 0.1}
	for _, row := range []struct {
		stage         int64
		task, attempt int
		want          faultKind
	}{
		{0, 0, 0, faultNone}, {0, 1, 0, faultNone}, {0, 2, 0, faultNone},
		{0, 3, 0, faultFail}, {0, 3, 1, faultFail},
		{1, 0, 0, faultPanic},
		{1, 5, 0, faultFail}, {1, 5, 1, faultNone}, {1, 5, 2, faultNone},
		{7, 11, 0, faultNone}, {7, 12, 0, faultFail}, {7, 13, 0, faultFail},
		{100, 0, 0, faultPanic}, {100, 1, 0, faultFail}, {100, 2, 0, faultNone}, {100, 3, 0, faultFail},
	} {
		if got := p.draw(row.stage, row.task, row.attempt, false); got != row.want {
			t.Errorf("draw(stage %d, task %d, attempt %d) = %v, want %v", row.stage, row.task, row.attempt, got, row.want)
		}
	}
	var counts [3]int
	var hash uint64
	for stage := int64(0); stage < 20; stage++ {
		for task := 0; task < 20; task++ {
			for attempt := 0; attempt < 3; attempt++ {
				k := p.draw(stage, task, attempt, false)
				counts[k]++
				hash = hash*31 + uint64(k)
			}
		}
	}
	if want := [3]int{842, 228, 130}; counts != want || hash != 6309598982984819896 {
		t.Fatalf("20×20×3 grid drew (none, fail, panic) = %v, hash %d; recorded %v, hash 6309598982984819896", counts, hash, want)
	}
}

func TestFaultPlanDeterministic(t *testing.T) {
	run := func() Stats {
		c := New(Config{Machines: 4, network: noNetwork,
			Faults: &FaultPlan{Seed: 7, FailureRate: 0.2, PanicRate: 0.05}})
		for s := 0; s < 5; s++ {
			if err := c.ForEachNamed(context.Background(), "", 40, func(int) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
		return c.Stats()
	}
	a, b := run(), run()
	if a.InjectedFaults == 0 {
		t.Fatal("plan injected no faults at rate 0.25 over 200 tasks")
	}
	if a.InjectedFaults != b.InjectedFaults || a.Retries != b.Retries {
		t.Fatalf("fault schedule not deterministic: %+v vs %+v", a, b)
	}
	if a.Retries < a.InjectedFaults {
		t.Fatalf("Retries %d < InjectedFaults %d: injected failures must be retried", a.Retries, a.InjectedFaults)
	}
}

func TestFaultPlanNeverFailsWithRetries(t *testing.T) {
	// Injected failures are transient by construction: the final attempt
	// always runs clean, so even an extreme plan cannot abort a stage.
	c := New(Config{Machines: 4, network: noNetwork,
		Faults: &FaultPlan{Seed: 3, FailureRate: 0.5, PanicRate: 0.3}})
	var ran atomic.Int64
	if err := c.ForEachNamed(context.Background(), "", 200, func(int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatalf("injected faults aborted the stage: %v", err)
	}
	if ran.Load() < 200 {
		t.Fatalf("only %d of 200 tasks completed", ran.Load())
	}
}

func TestForEachObservesCancellation(t *testing.T) {
	c := New(Config{Machines: 2, network: noNetwork})
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := c.ForEachNamed(ctx, "", 1000, func(task int) error {
		if ran.Add(1) == 3 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got >= 1000 {
		t.Fatal("cancellation did not stop task launches")
	}
}

func TestDriverObservesCancellation(t *testing.T) {
	c := New(Config{Machines: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.DriverNamed(ctx, "", func() { t.Fatal("driver section ran after cancel") }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestFaultPlanValidation(t *testing.T) {
	for _, plan := range []FaultPlan{
		{FailureRate: -0.1},
		{PanicRate: 1.5},
		{FailureRate: 0.8, PanicRate: 0.3},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepted invalid plan %+v", plan)
				}
			}()
			p := plan
			New(Config{Machines: 1, Faults: &p})
		}()
	}
}

func TestDrawSuppressesFaultsOnFinalAttempt(t *testing.T) {
	p := &FaultPlan{Seed: 1, FailureRate: 0.7, PanicRate: 0.3}
	for task := 0; task < 100; task++ {
		if got := p.draw(0, task, 3, true); got != faultNone {
			t.Fatalf("task %d: draw on final attempt = %v, want faultNone", task, got)
		}
	}
}
