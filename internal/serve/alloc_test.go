//go:build !race

// Under -race the runtime allocates on its own account, so an allocation
// count is the program's only without it.

package serve

import (
	"math/rand"
	"runtime"
	"testing"

	"dbtf/internal/boolmat"
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

// TestFactorHashAllocsIndependentOfSize: FactorHash streams the factors
// through a fixed-size buffer, so a triple of 4,096-row matrices costs the
// same objects and bytes as one of 8 rows (the whole encoding, 32 KB a
// matrix here, before).
func TestFactorHashAllocsIndependentOfSize(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type cost struct {
		objects float64
		bytes   uint64
	}
	measure := func(rows int) cost {
		a, b, c := boolmat.RandomFactor(rng, rows, 8, 0.5), boolmat.RandomFactor(rng, rows, 8, 0.5), boolmat.RandomFactor(rng, rows, 8, 0.5)
		hash := func() { FactorHash(a, b, c) }
		return cost{testing.AllocsPerRun(50, hash), bytesPerRun(50, hash)}
	}
	if small, large := measure(8), measure(4096); large != small {
		t.Errorf("FactorHash costs %+v over 4,096-row factors, %+v over 8-row ones", large, small)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes a call of f
// allocates, on one P, averaged over runs after a warm-up call. TotalAlloc
// is process-wide, so the least of three readings is the one believed.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	least := ^uint64(0)
	for try := 0; try < 3; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/uint64(runs))
	}
	return least
}
