package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"dbtf/internal/cluster"
	"dbtf/internal/core"
	"dbtf/internal/tensor"
	"dbtf/internal/trace"
)

// TestRetainedEventsAreNotAliased runs one seeded, fault-injected
// decomposition twice on deterministic clocks: once into a JSONL sink
// alone, which borrows the tracer's one event, and once into a tee of a
// JSONL sink and a Buffer, which get a deep copy of each. The two JSONL
// streams must be byte-identical, so a reused event carries nothing over
// from the one before it; and the Buffer's events, encoded after the run,
// must equal them too, so a kept event shares nothing — no Delta, no
// per-machine nanos, no count — with memory its emitter reuses.
func TestRetainedEventsAreNotAliased(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var coords []tensor.Coord
	for n := 0; n < 600; n++ {
		coords = append(coords, tensor.Coord{I: rng.Intn(16), J: rng.Intn(14), K: rng.Intn(12)})
	}
	x, err := tensor.FromCoords(16, 14, 12, coords)
	if err != nil {
		t.Fatal(err)
	}
	run := func(sink trace.Sink) {
		t.Helper()
		c := cluster.New(cluster.Config{
			Machines: 3,
			Faults:   &cluster.FaultPlan{Seed: 9, FailureRate: 0.1, MachineLossRate: 0.1, MachineRejoinAfter: 2},
			Tracer:   trace.New(sink, trace.WithClock(cluster.StepClock(time.Microsecond))),
		})
		cluster.Deterministic(c, time.Millisecond)
		if _, err := core.Decompose(context.Background(), x, c, core.Options{Rank: 5, Seed: 7, MaxIter: 4}); err != nil {
			t.Fatal(err)
		}
		if err := c.Tracer().Close(); err != nil {
			t.Fatal(err)
		}
	}
	var alone, teed bytes.Buffer
	run(trace.NewJSONL(&alone))
	kept := &trace.Buffer{}
	run(trace.NewTee(trace.NewJSONL(&teed), kept))

	if !bytes.Equal(alone.Bytes(), teed.Bytes()) {
		t.Fatalf("the borrowed JSONL stream (%d B) differs from the copied one (%d B)", alone.Len(), teed.Len())
	}
	var reencoded bytes.Buffer
	enc := json.NewEncoder(&reencoded)
	types := map[trace.Type]bool{}
	for _, ev := range kept.Events {
		types[ev.Type] = true
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(reencoded.Bytes(), alone.Bytes()) {
		t.Fatal("the Buffer's events, encoded after the run, differ from the stream written during it")
	}
	for _, typ := range []trace.Type{trace.StageEnd, trace.IterationEnd, trace.RunEnd, trace.Retry, trace.MachineLoss} {
		if !types[typ] {
			t.Errorf("the run emitted no %s event; weak test", typ)
		}
	}
}
