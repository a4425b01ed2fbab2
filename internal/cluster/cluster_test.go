package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with 0 machines did not panic")
		}
	}()
	New(Config{Machines: 0})
}

func TestForEachRunsAllTasks(t *testing.T) {
	c := New(Config{Machines: 4})
	var ran [100]atomic.Bool
	if err := c.ForEachNamed(context.Background(), "", 100, func(task int) error {
		if ran[task].Swap(true) {
			return fmt.Errorf("task %d ran twice", task)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if !ran[i].Load() {
			t.Fatalf("task %d never ran", i)
		}
	}
	s := c.Stats()
	if s.Stages != 1 || s.Tasks != 100 {
		t.Fatalf("stats = %+v, want 1 stage / 100 tasks", s)
	}
}

func TestForEachZeroTasks(t *testing.T) {
	c := New(Config{Machines: 2})
	if err := c.ForEachNamed(context.Background(), "", 0, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachPropagatesError(t *testing.T) {
	c := New(Config{Machines: 2})
	want := errors.New("boom")
	err := c.ForEachNamed(context.Background(), "", 10, func(task int) error {
		if task == 3 {
			return want
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
}

func TestForEachRecoversPanic(t *testing.T) {
	c := New(Config{Machines: 2})
	err := c.ForEachNamed(context.Background(), "", 4, func(task int) error {
		if task == 1 {
			panic("worker died")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic not surfaced as error")
	}
}

func TestTrafficAccounting(t *testing.T) {
	c := New(Config{Machines: 8})
	c.Shuffle(1000)
	c.Broadcast(10) // ×8 machines
	c.Collect(5)
	s := c.Stats()
	if s.ShuffledBytes != 1000 {
		t.Errorf("ShuffledBytes = %d", s.ShuffledBytes)
	}
	if s.BroadcastBytes != 80 {
		t.Errorf("BroadcastBytes = %d, want 10*8", s.BroadcastBytes)
	}
	if s.CollectedBytes != 5 {
		t.Errorf("CollectedBytes = %d", s.CollectedBytes)
	}
}

func TestSimulatedMakespanScalesWithMachines(t *testing.T) {
	// 16 equal tasks on 1 machine must cost exactly 4x the simulated time
	// of the same tasks on 4 machines (no network cost here). A fake
	// clock advancing 1ms per reading makes every task cost exactly 1ms
	// in the ledger regardless of host load.
	noNet := NetworkModel{LatencyPerStage: 0, BytesPerSecond: 1e18} // non-zero struct so DefaultNetwork is not substituted
	run := func(machines int) time.Duration {
		c := New(Config{Machines: machines, network: noNet})
		c.parallelism = 1 // the fake clock is read by one goroutine
		fake := time.Unix(0, 0)
		c.now = func() time.Time {
			fake = fake.Add(time.Millisecond)
			return fake
		}
		if err := c.ForEachNamed(context.Background(), "", 16, func(int) error { return nil }); err != nil {
			t.Fatal(err)
		}
		return c.SimElapsed()
	}
	t1, t4 := run(1), run(4)
	if t1 != 16*time.Millisecond {
		t.Fatalf("1-machine makespan %v, want 16ms", t1)
	}
	if t4 != 4*time.Millisecond {
		t.Fatalf("4-machine makespan %v, want 4ms", t4)
	}
}

func TestNetworkCostCharged(t *testing.T) {
	slow := NetworkModel{LatencyPerStage: 0, BytesPerSecond: 1e6} // 1 MB/s per link
	c := New(Config{Machines: 2, network: slow})
	// Shuffle fans out over the 2 machines' links: 1 MB / (1 MB/s × 2) ≈ 0.5s.
	c.Shuffle(1_000_000)
	if err := c.ForEachNamed(context.Background(), "", 1, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	sim := c.SimElapsed()
	if sim < 450*time.Millisecond || sim > 700*time.Millisecond {
		t.Fatalf("parallel shuffle cost %v, want ≈0.5s", sim)
	}
	// Collection funnels into the driver's single downlink: 1 MB / 1 MB/s ≈ 1s more.
	c.Collect(1_000_000)
	if err := c.ForEachNamed(context.Background(), "", 1, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if extra := c.SimElapsed() - sim; extra < 900*time.Millisecond {
		t.Fatalf("collect funnel cost %v, want ≈1s", extra)
	}
}

func TestNetworkTrafficChargedOnce(t *testing.T) {
	slow := NetworkModel{LatencyPerStage: 0, BytesPerSecond: 1e6}
	c := New(Config{Machines: 2, network: slow})
	c.Collect(1_000_000)
	noop := func(int) error { return nil }
	if err := c.ForEachNamed(context.Background(), "", 1, noop); err != nil {
		t.Fatal(err)
	}
	first := c.SimElapsed()
	if err := c.ForEachNamed(context.Background(), "", 1, noop); err != nil {
		t.Fatal(err)
	}
	second := c.SimElapsed() - first
	if second > first/2 {
		t.Fatalf("second stage recharged old traffic: %v after %v", second, first)
	}
}

func TestDriverCharged(t *testing.T) {
	c := New(Config{Machines: 4})
	c.DriverNamed(context.Background(), "", func() { busySpin(5 * time.Millisecond) })
	if sim := c.SimElapsed(); sim < 4*time.Millisecond {
		t.Fatalf("driver section not charged: %v", sim)
	}
}

func TestResetClock(t *testing.T) {
	c := New(Config{Machines: 2})
	c.DriverNamed(context.Background(), "", func() { busySpin(time.Millisecond) })
	c.ResetClock()
	if c.SimElapsed() != 0 {
		t.Fatal("ResetClock did not zero the simulated clock")
	}
}

func TestDefaultParallelismBounded(t *testing.T) {
	// With 64 logical machines the engine must still work and must not
	// spawn 64 concurrent tasks on a small host: observe that concurrency
	// never exceeds the host GOMAXPROCS.
	c := New(Config{Machines: 64})
	var cur, peak atomic.Int64
	if err := c.ForEachNamed(context.Background(), "", 64, func(int) error {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > 64 {
		t.Fatalf("peak concurrency %d", got)
	}
}

// busySpin burns CPU for roughly d so measured durations reflect work, not
// sleep (sleep would be invisible to the dedicated-core duration model).
func busySpin(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}
