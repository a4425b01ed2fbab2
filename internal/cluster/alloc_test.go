//go:build !race

// Under -race sync.Pool drops Puts at random and the runtime allocates on
// its own account, so an allocation count is the program's only without it.

package cluster

import (
	"context"
	"io"
	"runtime/pprof"
	"testing"

	"dbtf/internal/trace"
	"dbtf/internal/transport"
)

// TestStageBookkeepingAllocs pins what a stage costs beside its tasks:
// nothing. The per-stage state comes from a free list, a lane starts as a
// function of no arguments (no closure), and a context that already carries
// the stage's name as its "stage" label — the one a factor update derives
// for all its stages — is used as it is, so a simulated stage of four no-op
// tasks on two lanes allocates no object (16 before the state was pooled,
// at most 5 before lanes started without a closure). A driver section and
// a traffic charge allocate nothing either.
func TestStageBookkeepingAllocs(t *testing.T) {
	c := New(Config{Machines: 4})
	c.parallelism = 2
	ctx := pprof.WithLabels(context.Background(), pprof.Labels("mode", "A", "stage", "eval:A"))
	task, section := func(int) error { return nil }, func() {}
	stage := func() {
		if err := c.ForEachNamed(ctx, "eval:A", 4, task); err != nil {
			t.Fatal(err)
		}
	}
	stage()
	if allocs := testing.AllocsPerRun(200, stage); allocs != 0 {
		t.Errorf("a stage of 4 no-op tasks allocates %v objects, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := c.DriverNamed(ctx, "commit:A", section); err != nil {
			t.Fatal(err)
		}
		c.Collect(1)
	}); allocs != 0 {
		t.Errorf("a driver section and a collect allocate %v objects, want 0", allocs)
	}
}

// TestTracedStageAllocs pins what tracing a warm stage costs when its sink
// borrows, as JSONL does: nothing. A stage, a collect and a driver section
// into a JSONL sink allocate exactly what they do untraced; the events stay
// on their emitters' stacks, and the stage end points at the pooled stage
// state's delta and per-machine nanos, which the tracer reads only while
// it writes them.
func TestTracedStageAllocs(t *testing.T) {
	ctx := pprof.WithLabels(context.Background(), pprof.Labels("mode", "A", "stage", "eval:A"))
	task, section := func(int) error { return nil }, func() {}
	allocs := func(tracer *trace.Tracer) float64 {
		c := New(Config{Machines: 4, Tracer: tracer})
		c.parallelism = 2
		stage := func() {
			if err := c.ForEachNamed(ctx, "eval:A", 4, task); err != nil {
				t.Fatal(err)
			}
			c.Collect(1)
			if err := c.DriverNamed(ctx, "commit:A", section); err != nil {
				t.Fatal(err)
			}
		}
		stage()
		return testing.AllocsPerRun(200, stage)
	}
	untraced := allocs(nil)
	if traced := allocs(trace.New(trace.NewJSONL(io.Discard))); traced != untraced {
		t.Errorf("a traced stage, collect and driver section allocate %v objects, untraced %v", traced, untraced)
	}
}

// TestRemoteStageAllocs pins what a warm remote stage costs beside its
// transport: nothing. The function the transport delivers each task's
// result through is bound once on the pooled stage state, not made as a
// closure for every stage (one object a stage before).
func TestRemoteStageAllocs(t *testing.T) {
	c := New(Config{Machines: 3, Transport: &fakeTransport{machines: 3}})
	spec := transport.Spec{Kind: transport.KindEval, Tasks: 5}
	stage := func() {
		if err := c.RunStage(context.Background(), "eval:A", spec, nil, discard); err != nil {
			t.Fatal(err)
		}
	}
	stage()
	if allocs := testing.AllocsPerRun(200, stage); allocs != 0 {
		t.Errorf("a warm remote stage of 5 tasks allocates %v objects, want 0", allocs)
	}
}
