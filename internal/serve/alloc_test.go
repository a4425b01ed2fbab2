//go:build !race

// Under -race the runtime allocates on its own account, so an allocation
// count is the program's only without it.

package serve

import (
	"testing"

	"dbtf/internal/trace"
)

// TestJobTraceEmitAllocs: an event emitted into a job's trace — the tee of
// its durable JSONL file and its progress fold, both done with an event
// when Write returns — costs no object, a stage end's delta and per-machine
// nanos included: the tracer writes both branches from its one event.
func TestJobTraceEmitAllocs(t *testing.T) {
	s := testServer(t, nil)
	defer s.Drain()
	tr := s.traceFor("j00000000")
	if tr == nil {
		t.Fatal("no trace for the job")
	}
	delta, nanos := trace.StatsDelta{ComputeNanos: 7, NetworkNanos: 2, TaskNanos: 9}, []int64{3, 7}
	emit := func() {
		ev := trace.NewEvent(trace.StageEnd)
		ev.Stage, ev.Name, ev.SimNanos, ev.DurNanos = 4, "eval:A", 90, 9
		ev.Delta, ev.PerMachineNanos = &delta, nanos
		tr.Emit(ev)
	}
	emit()
	if allocs := testing.AllocsPerRun(100, emit); allocs != 0 {
		t.Errorf("an Emit through a job's trace tee allocates %v objects, want 0", allocs)
	}
}
