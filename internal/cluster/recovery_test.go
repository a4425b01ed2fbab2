package cluster

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMachineKillReassignsTasks(t *testing.T) {
	c := New(Config{Machines: 4, network: noNetwork,
		Faults: &FaultPlan{machineKills: []machineKill{{Stage: 0, Machine: 1}}}})
	if err := c.ForEachNamed(context.Background(), "", 8, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := c.LiveMachines(); got != 3 {
		t.Fatalf("LiveMachines = %d after one kill of 4, want 3", got)
	}
	// Home machine 1 is dead: its tasks land on the next live machine in
	// ring order (machine 2); live machines keep their home placement.
	for task, want := range map[int]int{0: 0, 1: 2, 5: 2, 2: 2, 3: 3} {
		if got := c.MachineFor(task); got != want {
			t.Fatalf("MachineFor(%d) = %d, want %d", task, got, want)
		}
	}
	s := c.Stats()
	if s.MachineLosses != 1 {
		t.Fatalf("MachineLosses = %d, want 1", s.MachineLosses)
	}
	if s.Recoveries != 1 {
		t.Fatalf("Recoveries = %d: the completed stage should absorb the loss, want 1", s.Recoveries)
	}
}

func TestMachineRejoin(t *testing.T) {
	c := New(Config{Machines: 2, network: noNetwork,
		Faults: &FaultPlan{
			machineKills:       []machineKill{{Stage: 0, Machine: 0}},
			MachineRejoinAfter: 2,
		}})
	ctx := context.Background()
	if err := c.ForEachNamed(ctx, "", 4, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := c.LiveMachines(); got != 1 {
		t.Fatalf("LiveMachines = %d after kill, want 1", got)
	}
	if got := c.MachineFor(0); got != 1 {
		t.Fatalf("MachineFor(0) = %d while machine 0 is dead, want 1", got)
	}
	// Stage 1 is still within the rejoin delay; stage 2 revives machine 0.
	for s := 0; s < 2; s++ {
		if err := c.ForEachNamed(ctx, "", 4, func(int) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.LiveMachines(); got != 2 {
		t.Fatalf("LiveMachines = %d after rejoin delay, want 2", got)
	}
	if got := c.MachineFor(0); got != 0 {
		t.Fatalf("MachineFor(0) = %d after rejoin, want home machine 0", got)
	}
	s := c.Stats()
	// One loss absorbed by its stage plus one rejoin.
	if s.MachineLosses != 1 || s.Recoveries != 2 {
		t.Fatalf("MachineLosses = %d, Recoveries = %d, want 1 and 2", s.MachineLosses, s.Recoveries)
	}
}

func TestNeverKillsLastMachine(t *testing.T) {
	c := New(Config{Machines: 1, network: noNetwork,
		Faults: &FaultPlan{Seed: 1, MachineLossRate: 0.99}})
	for s := 0; s < 20; s++ {
		if err := c.ForEachNamed(context.Background(), "", 4, func(int) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Stats().MachineLosses; got != 0 {
		t.Fatalf("MachineLosses = %d on a 1-machine cluster, want 0", got)
	}
	if got := c.LiveMachines(); got != 1 {
		t.Fatalf("LiveMachines = %d, want 1", got)
	}
}

func TestMachineLossScheduleDeterministic(t *testing.T) {
	run := func() Stats {
		c := New(Config{Machines: 8, network: noNetwork,
			Faults: &FaultPlan{Seed: 11, MachineLossRate: 0.15, MachineRejoinAfter: 2}})
		for s := 0; s < 12; s++ {
			if err := c.ForEachNamed(context.Background(), "", 16, func(int) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
		return c.Stats()
	}
	a, b := run(), run()
	if a.MachineLosses == 0 {
		t.Fatal("no machine losses injected at rate 0.15 over 12 stages of 8 machines")
	}
	// Measured task durations vary between runs; the fault schedule and
	// its counters must not.
	a.ComputeNanos, a.TaskNanos, b.ComputeNanos, b.TaskNanos = 0, 0, 0, 0
	if a != b {
		t.Fatalf("loss schedule not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestOnMachineLossHandler(t *testing.T) {
	c := New(Config{Machines: 4, network: noNetwork,
		Faults: &FaultPlan{machineKills: []machineKill{{Stage: 1, Machine: 2}}}})
	var lost []int
	var tasksBeforeHandler atomic.Int64
	var ran atomic.Int64
	c.OnMachineLoss(func(m int) {
		lost = append(lost, m)
		tasksBeforeHandler.Store(ran.Load())
		c.Shuffle(1000) // recovery traffic from inside the handler must not deadlock
	})
	ctx := context.Background()
	for s := 0; s < 2; s++ {
		if err := c.ForEachNamed(ctx, "", 8, func(int) error { ran.Add(1); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if len(lost) != 1 || lost[0] != 2 {
		t.Fatalf("handler saw losses %v, want [2]", lost)
	}
	if got := tasksBeforeHandler.Load(); got != 8 {
		t.Fatalf("handler ran after %d tasks, want 8: it must run at the stage boundary before the stage's tasks", got)
	}
}

func TestMachineLossChargesRecoveryTraffic(t *testing.T) {
	c := New(Config{Machines: 4, network: noNetwork,
		Faults: &FaultPlan{machineKills: []machineKill{{Stage: 1, Machine: 0}}}})
	ctx := context.Background()
	if err := c.ForEachNamed(ctx, "", 4, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	c.BroadcastState(1 << 20)
	before := c.Stats().BroadcastBytes
	if want := int64(4 << 20); before != want {
		t.Fatalf("BroadcastBytes = %d after BroadcastState, want %d", before, want)
	}
	// Stage 1 kills machine 0: the survivor re-fetches the 1 MiB working
	// set once (not ×M).
	if err := c.ForEachNamed(ctx, "", 4, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	after := c.Stats().BroadcastBytes
	if got := after - before; got != 1<<20 {
		t.Fatalf("recovery re-broadcast %d bytes, want %d", got, 1<<20)
	}
}

func TestMachineKillOutsideClusterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a machineKills entry outside the cluster")
		}
	}()
	New(Config{Machines: 2, Faults: &FaultPlan{machineKills: []machineKill{{Stage: 0, Machine: 5}}}})
}

func TestStatsSnapshotNotTorn(t *testing.T) {
	// Every stage of 8 tasks fails each task exactly once, so Retries
	// grows in exact multiples of 8 — but only if retry counters are
	// published atomically with their stage. A torn snapshot (counters
	// read mid-stage, as with the former per-counter atomics) shows
	// partial increments.
	c := New(Config{Machines: 4, network: noNetwork})
	const tasksPerStage = 8
	var stage atomic.Int64
	var attempts sync.Map
	done := make(chan struct{})
	var torn atomic.Int64
	var snaps atomic.Int64
	var wg, started sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		started.Add(1)
		go func() {
			defer wg.Done()
			first := true
			for {
				s := c.Stats()
				snaps.Add(1)
				if s.Retries%tasksPerStage != 0 {
					torn.Add(1)
				}
				if first {
					first = false
					started.Done()
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	started.Wait()
	for st := 0; st < 50; st++ {
		stage.Store(int64(st))
		if err := c.ForEachNamed(context.Background(), "", tasksPerStage, func(task int) error {
			key := [2]int64{stage.Load(), int64(task)}
			if n, _ := attempts.LoadOrStore(key, new(atomic.Int64)); n.(*atomic.Int64).Add(1) == 1 {
				return errTransient
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if snaps.Load() == 0 {
		t.Fatal("no concurrent snapshots taken")
	}
	if n := torn.Load(); n != 0 {
		t.Fatalf("%d of %d snapshots showed torn mid-stage Retries", n, snaps.Load())
	}
	if got := c.Stats().Retries; got != 50*tasksPerStage {
		t.Fatalf("final Retries = %d, want %d", got, 50*tasksPerStage)
	}
}

var errTransient = errTransientType{}

type errTransientType struct{}

func (errTransientType) Error() string { return "transient" }
