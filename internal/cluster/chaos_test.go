package cluster

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// noNetwork removes modeled communication cost so simulated-clock tests
// observe only task, backoff, and straggler time. Non-zero struct so
// DefaultNetwork is not substituted.
var noNetwork = NetworkModel{LatencyPerStage: 0, BytesPerSecond: 1e18}

func TestRetryRecoversTransientError(t *testing.T) {
	c := New(Config{Machines: 2, network: noNetwork})
	var attempts [4]atomic.Int64
	err := c.ForEach(context.Background(), 4, func(task int) error {
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
	err := c.ForEach(context.Background(), 1, func(int) error {
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
	c := New(Config{Machines: 2, MaxRetries: 2, network: noNetwork})
	want := errors.New("permanent")
	var attempts atomic.Int64
	err := c.ForEach(context.Background(), 1, func(int) error {
		attempts.Add(1)
		return want
	})
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want wrapped %v", err, want)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("task ran %d times, want 1+MaxRetries = 3", got)
	}
}

func TestFailFastAborts(t *testing.T) {
	c := New(Config{Machines: 2, FailFast: true, network: noNetwork})
	want := errors.New("boom")
	var attempts atomic.Int64
	err := c.ForEach(context.Background(), 1, func(int) error {
		attempts.Add(1)
		return want
	})
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("task ran %d times under FailFast, want 1", got)
	}
	if got := c.Stats().Retries; got != 0 {
		t.Fatalf("Retries = %d under FailFast, want 0", got)
	}
}

func TestBackoffChargedToSimulatedClock(t *testing.T) {
	c := New(Config{Machines: 1, network: noNetwork})
	var attempts atomic.Int64
	start := time.Now()
	if err := c.ForEach(context.Background(), 1, func(int) error {
		if attempts.Add(1) == 1 {
			return errors.New("transient")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > 50*time.Millisecond {
		t.Fatalf("backoff slept %v of real time; must be simulated only", wall)
	}
	if sim := c.SimElapsed(); sim < retryBackoff {
		t.Fatalf("SimElapsed = %v, want >= %v of charged backoff", sim, retryBackoff)
	}
}

func TestFaultPlanDeterministic(t *testing.T) {
	run := func() Stats {
		c := New(Config{Machines: 4, network: noNetwork,
			Faults: &FaultPlan{Seed: 7, FailureRate: 0.2, PanicRate: 0.05}})
		for s := 0; s < 5; s++ {
			if err := c.ForEach(context.Background(), 40, func(int) error { return nil }); err != nil {
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
	if err := c.ForEach(context.Background(), 200, func(int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatalf("injected faults aborted the stage: %v", err)
	}
	if ran.Load() < 200 {
		t.Fatalf("only %d of 200 tasks completed", ran.Load())
	}
}

func TestFailFastSuppressesFailureInjection(t *testing.T) {
	// With one attempt per task there is no clean retry to fall back on,
	// so fail/panic injection is disabled rather than making every run
	// abort.
	c := New(Config{Machines: 2, FailFast: true, network: noNetwork,
		Faults: &FaultPlan{Seed: 1, FailureRate: 1.0}})
	if err := c.ForEach(context.Background(), 50, func(int) error { return nil }); err != nil {
		t.Fatalf("FailFast run failed under injection-only faults: %v", err)
	}
	if got := c.Stats().InjectedFaults; got != 0 {
		t.Fatalf("InjectedFaults = %d under FailFast, want 0", got)
	}
}

func TestStragglerChargesSimulatedClock(t *testing.T) {
	c := New(Config{Machines: 1, network: noNetwork,
		Faults: &FaultPlan{Seed: 1, StragglerRate: 1.0,
			stragglerDelay: 80 * time.Millisecond, disableSpeculation: true}})
	start := time.Now()
	if err := c.ForEach(context.Background(), 1, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > 50*time.Millisecond {
		t.Fatalf("straggler delay slept %v of real time; must be simulated only", wall)
	}
	if sim := c.SimElapsed(); sim < 80*time.Millisecond {
		t.Fatalf("SimElapsed = %v, want >= the 80ms injected delay", sim)
	}
	s := c.Stats()
	if s.InjectedFaults != 1 || s.SpeculativeWins != 0 {
		t.Fatalf("stats = %+v, want 1 injected fault, 0 speculative wins", s)
	}
}

func TestSpeculativeCopyBeatsStraggler(t *testing.T) {
	// A near-instant task delayed by 1s: the speculative copy (task cost +
	// 1ms launch) wins, and the clock pays the copy instead of the delay.
	c := New(Config{Machines: 1, network: noNetwork,
		Faults: &FaultPlan{Seed: 1, StragglerRate: 1.0,
			stragglerDelay: time.Second, speculativeLaunch: time.Millisecond}})
	if err := c.ForEach(context.Background(), 1, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().SpeculativeWins; got != 1 {
		t.Fatalf("SpeculativeWins = %d, want 1", got)
	}
	if sim := c.SimElapsed(); sim >= time.Second {
		t.Fatalf("SimElapsed = %v: speculative win should undercut the 1s delay", sim)
	}
}

func TestForEachObservesCancellation(t *testing.T) {
	c := New(Config{Machines: 2, network: noNetwork})
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := c.ForEach(ctx, 1000, func(task int) error {
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
	if err := c.Driver(ctx, func() { t.Fatal("driver section ran after cancel") }); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestFaultPlanValidation(t *testing.T) {
	for _, plan := range []FaultPlan{
		{FailureRate: -0.1},
		{PanicRate: 1.5},
		{FailureRate: 0.6, PanicRate: 0.3, StragglerRate: 0.2},
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
	defer func() {
		if recover() == nil {
			t.Error("New accepted negative MaxRetries")
		}
	}()
	New(Config{Machines: 1, MaxRetries: -1})
}

func TestDrawSuppressesFaultsOnFinalAttempt(t *testing.T) {
	p := &FaultPlan{Seed: 1, FailureRate: 0.7, PanicRate: 0.3}
	for task := 0; task < 100; task++ {
		if got := p.draw(0, task, 3, true); got != faultNone {
			t.Fatalf("task %d: draw on final attempt = %v, want faultNone", task, got)
		}
	}
	// Stragglers delay but never fail, so they are allowed on the final
	// attempt.
	sp := &FaultPlan{Seed: 1, StragglerRate: 1.0}
	if got := sp.draw(0, 0, 3, true); got != faultStraggler {
		t.Fatalf("straggler draw on final attempt = %v, want faultStraggler", got)
	}
}
