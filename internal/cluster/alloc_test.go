//go:build !race

// Under -race sync.Pool drops Puts at random and the runtime allocates on
// its own account, so an allocation count is the program's only without it.

package cluster

import (
	"context"
	"runtime/pprof"
	"testing"
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
