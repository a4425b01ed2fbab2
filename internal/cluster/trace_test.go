package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dbtf/internal/trace"
)

// stepClock returns a deterministic clock advancing step per reading,
// usable both as the engine's task clock and the tracer's wall clock.
func stepClock(step time.Duration) func() time.Time {
	fake := time.Unix(0, 0)
	return func() time.Time {
		fake = fake.Add(step)
		return fake
	}
}

// foldStream folds every event with StatsDelta.Observe, the validator's
// accumulation rule.
func foldStream(events []*trace.Event) trace.StatsDelta {
	var acc trace.StatsDelta
	for _, ev := range events {
		acc.Observe(ev)
	}
	return acc
}

// TestTraceDeltasSumToStats runs a chaos-heavy seeded workload — retries,
// panics, machine losses with rejoins, a
// loss handler recording recovery traffic, checkpoints, driver sections —
// and asserts the attribution contract: folding the event stream
// reproduces Cluster.Stats exactly.
func TestTraceDeltasSumToStats(t *testing.T) {
	buf := &trace.Buffer{}
	c := New(Config{
		Machines: 4,
		Faults: &FaultPlan{
			Seed:               42,
			FailureRate:        0.15,
			PanicRate:          0.05,
			MachineLossRate:    0.08,
			MachineRejoinAfter: 2,
		},
		Tracer: trace.New(buf, trace.WithClock(stepClock(time.Microsecond))),
	})
	c.OnMachineLoss(func(m int) { c.Shuffle(512) })
	ctx := context.Background()
	c.BroadcastState(64)
	for stage := 0; stage < 12; stage++ {
		if err := c.ForEachNamed(ctx, fmt.Sprintf("work%d", stage), 8, func(int) error { return nil }); err != nil {
			t.Fatal(err)
		}
		c.Collect(96)
		if err := c.DriverNamed(ctx, "", func() {}); err != nil {
			t.Fatal(err)
		}
	}
	c.RecordCheckpoint(2048)
	if err := c.ForEachNamed(ctx, "", 4, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}

	got := foldStream(buf.Events)
	want := c.Stats()
	if got != want {
		t.Fatalf("folded event deltas do not reproduce Stats:\nfold: %+v\nstats: %+v", got, want)
	}
	if want.MachineLosses == 0 || want.Retries == 0 {
		t.Fatalf("chaos run exercised no faults (losses=%d retries=%d); weak test",
			want.MachineLosses, want.Retries)
	}
}

// TestTraceStreamStructureUnderChaos validates the same chaos stream
// structurally: spans pair and nest, losses land on stage boundaries, the
// simulated clock never goes backwards.
func TestTraceStreamStructureUnderChaos(t *testing.T) {
	buf := &trace.Buffer{}
	c := New(Config{
		Machines: 3,
		Faults:   &FaultPlan{Seed: 7, FailureRate: 0.2, MachineLossRate: 0.1, MachineRejoinAfter: 1},
		Tracer:   trace.New(buf, trace.WithClock(stepClock(time.Microsecond))),
	})
	ctx := context.Background()
	statsBefore := c.Stats()
	run := trace.NewEvent(trace.RunBegin)
	run.Machines = c.Machines()
	c.Tracer().Emit(run)
	c.BroadcastState(32)
	for stage := 0; stage < 8; stage++ {
		if err := c.ForEachNamed(ctx, "chaos", 6, func(int) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	end := trace.NewEvent(trace.RunEnd)
	end.SimNanos = c.SimElapsed().Nanoseconds()
	delta := c.Stats().Sub(statsBefore)
	end.Delta = &delta
	c.Tracer().Emit(end)

	sum, err := trace.Validate(buf.Events)
	if err != nil {
		t.Fatalf("chaos stream structurally invalid: %v", err)
	}
	if sum.Stages != 8 {
		t.Fatalf("validated %d stages, want 8", sum.Stages)
	}
}

// TestTraceConcurrentStages drives many stages from concurrent goroutines
// (run under -race): the tracer must serialize emission into a consistent
// stream — strictly increasing sequence numbers, no torn events, paired
// begin/end counts — and the fold must still reproduce Stats exactly,
// since every counter mutation is published by exactly one event.
func TestTraceConcurrentStages(t *testing.T) {
	buf := &trace.Buffer{}
	c := New(Config{Machines: 4, Tracer: trace.New(buf)})
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for s := 0; s < 5; s++ {
				c.Shuffle(10)
				if err := c.ForEachNamed(ctx, fmt.Sprintf("g%d", g), 4, func(int) error { return nil }); err != nil {
					t.Error(err)
				}
				if err := c.DriverNamed(ctx, "d", func() {}); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()

	counts := map[trace.Type]int{}
	lastSeq := int64(-1)
	for _, ev := range buf.Events {
		if ev.Seq <= lastSeq {
			t.Fatalf("seq %d after %d: stream interleaved", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		counts[ev.Type]++
	}
	if counts[trace.StageBegin] != 40 || counts[trace.StageEnd] != 40 {
		t.Fatalf("stage begin/end counts %d/%d, want 40/40", counts[trace.StageBegin], counts[trace.StageEnd])
	}
	if counts[trace.DriverBegin] != counts[trace.DriverEnd] {
		t.Fatalf("driver begin/end counts %d/%d", counts[trace.DriverBegin], counts[trace.DriverEnd])
	}
	if got, want := foldStream(buf.Events), c.Stats(); got != want {
		t.Fatalf("concurrent fold mismatch:\nfold: %+v\nstats: %+v", got, want)
	}
}

// TestChromeGolden locks the byte-exact Chrome export of a fully
// deterministic scripted run: fake engine and wall clocks, one worker, a
// scheduled machine kill. Regenerate with
// DBTF_UPDATE_GOLDEN=1 after an intentional format change.
func TestChromeGolden(t *testing.T) {
	updateGolden := os.Getenv("DBTF_UPDATE_GOLDEN") != ""
	var out bytes.Buffer
	c := New(Config{
		Machines: 2,
		network:  NetworkModel{LatencyPerStage: time.Millisecond, BytesPerSecond: 1e6},
		Faults: &FaultPlan{
			machineKills:       []machineKill{{Stage: 1, Machine: 1}},
			MachineRejoinAfter: 2,
		},
		Tracer: trace.New(trace.NewChrome(&out), trace.WithClock(stepClock(time.Microsecond))),
	})
	c.now = stepClock(time.Millisecond)
	c.parallelism = 1
	ctx := context.Background()

	c.Shuffle(1000)
	if err := c.ForEachNamed(ctx, "build", 4, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	c.BroadcastState(500)
	if err := c.ForEachNamed(ctx, "eval", 4, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	c.Collect(250)
	if err := c.DriverNamed(ctx, "commit", func() {}); err != nil {
		t.Fatal(err)
	}
	if err := c.ForEachNamed(ctx, "eval", 4, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := c.Tracer().Close(); err != nil {
		t.Fatal(err)
	}

	var parsed []any
	if err := json.Unmarshal(out.Bytes(), &parsed); err != nil {
		t.Fatalf("golden output not valid JSON: %v", err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with DBTF_UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("chrome export differs from %s (run with DBTF_UPDATE_GOLDEN=1 to regenerate)\ngot:\n%s", golden, out.Bytes())
	}
}

// TestResetClockRebaselinesCheckpointBytes is the regression test for the
// checkpoint-baseline bug: checkpoint traffic recorded before ResetClock
// must not be attributed to the first stage after the reset.
func TestResetClockRebaselinesCheckpointBytes(t *testing.T) {
	buf := &trace.Buffer{}
	c := New(Config{Machines: 2, Tracer: trace.New(buf)})
	ctx := context.Background()
	c.RecordCheckpoint(1 << 20) // pre-phase checkpoint
	c.ResetClock()
	if err := c.ForEachNamed(ctx, "", 2, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	var stageEnd *trace.Event
	for _, ev := range buf.Events {
		if ev.Type == trace.StageEnd {
			stageEnd = ev
		}
	}
	if stageEnd == nil {
		t.Fatal("no stage_end event")
	}
	if stageEnd.Delta.CheckpointBytes != 0 {
		t.Fatalf("first stage after ResetClock attributed %d pre-phase checkpoint bytes", stageEnd.Delta.CheckpointBytes)
	}
	// And checkpoint traffic recorded after the reset is attributed to the
	// next stage boundary as usual.
	c.RecordCheckpoint(4096)
	if err := c.ForEachNamed(ctx, "", 2, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	last := buf.Events[len(buf.Events)-1]
	if last.Type != trace.StageEnd || last.Delta.CheckpointBytes != 4096 {
		t.Fatalf("post-reset checkpoint bytes not attributed to the next stage: %+v", last)
	}
}

// TestResetClockDropsPendingRecoveryNanos is the companion clock
// regression: recovery transfer time accrued before ResetClock (a machine
// loss whose re-fetch was not yet absorbed by a stage) must not be charged
// to the first stage of the next timed phase.
func TestResetClockDropsPendingRecoveryNanos(t *testing.T) {
	noNet := NetworkModel{LatencyPerStage: 0, BytesPerSecond: 1e6}
	c := New(Config{Machines: 2, network: noNet})
	c.mu.Lock()
	c.recoveryNanos = int64(5 * time.Second) // pending pre-phase recovery transfer
	c.mu.Unlock()
	c.ResetClock()
	if err := c.ForEachNamed(context.Background(), "", 2, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if n := c.Stats().NetworkNanos; n >= int64(5*time.Second) {
		t.Fatalf("pre-phase recovery nanos leaked into the next phase: NetworkNanos=%d", n)
	}
}

// TestDriverRecordsCancelledSection is the regression test for the
// mid-section cancellation bug: a context cancelled while fn runs must
// still charge the section to the clock AND propagate the cancellation.
func TestDriverRecordsCancelledSection(t *testing.T) {
	buf := &trace.Buffer{}
	c := New(Config{Machines: 2, Tracer: trace.New(buf)})
	c.now = stepClock(time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	err := c.DriverNamed(ctx, "interrupted", func() { cancel() })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Driver returned %v after mid-section cancellation, want context.Canceled", err)
	}
	if c.Stats().DriverNanos == 0 {
		t.Fatal("cancelled section's duration was not recorded")
	}
	var end *trace.Event
	for _, ev := range buf.Events {
		if ev.Type == trace.DriverEnd {
			end = ev
		}
	}
	if end == nil || end.DurNanos == 0 {
		t.Fatalf("cancelled section missing from the trace: %+v", end)
	}
	// A context already cancelled before the section still skips it.
	before := c.Stats().DriverNanos
	if err := c.DriverNamed(ctx, "", func() { t.Fatal("section ran under a dead context") }); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Driver returned %v", err)
	}
	if c.Stats().DriverNanos != before {
		t.Fatal("skipped section charged time")
	}
}

// TestTracerDisabledOverhead guards the nil fast path at the engine level:
// a traced-API call sequence with a nil tracer allocates nothing beyond
// the untraced baseline.
func TestTracerDisabledOverhead(t *testing.T) {
	c := New(Config{Machines: 2})
	allocs := testing.AllocsPerRun(50, func() {
		c.Shuffle(1)
		c.Broadcast(1)
		c.Collect(1)
		c.RecordCheckpoint(1)
	})
	if allocs != 0 {
		t.Fatalf("traffic recording with disabled tracer allocates %v per call set", allocs)
	}
}
