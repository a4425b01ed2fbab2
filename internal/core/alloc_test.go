//go:build !race

// Under -race the runtime allocates on its own account, so an allocation
// count is the program's only without it.

package core

import (
	"math/rand"
	"runtime/pprof"
	"testing"

	"dbtf/internal/boolmat"
)

// TestEndIterationUntracedAllocs: closing an iteration with tracing off
// allocates nothing. The trace event points at copies of the error,
// improvement and flip count made on the traced branch only; pointing at
// the parameters moved all three to the heap on every call.
func TestEndIterationUntracedAllocs(t *testing.T) {
	d := &decomposition{cl: testCluster(2)}
	if allocs := testing.AllocsPerRun(100, func() { d.endIteration(2, 10, 1, 3) }); allocs != 0 {
		t.Errorf("endIteration on a nil tracer allocates %v objects, want 0", allocs)
	}
}

// TestWarmFactorUpdateAllocs pins what a factor update allocates once its
// run is warm (iteration 2 on, simulator): the cache tables its first stage
// builds and its one labelled context, nothing else — at rank 8 (four
// stages) and rank 32 (sixteen) alike, so nothing is made per stage, per
// column task rebuild or per update beside them. Each update follows a real
// iteration's setFactors and a flipped entry of the cached matrix, so it
// rebuilds every partition's task and every table it reads. What the
// tables cost is measured by building the same ones through the registry
// alone: it differs between the ranks (a rank-8 table's popcounts are too
// small for the slab pool), the remainder may not.
func TestWarmFactorUpdateAllocs(t *testing.T) {
	x := randomTensor(rand.New(rand.NewSource(41)), 24, 20, 16, 0.2)
	for _, rank := range []int{8, 32} {
		rng := rand.New(rand.NewSource(42))
		a, b, c := boolmat.RandomFactor(rng, 24, rank, 0.3), boolmat.RandomFactor(rng, 20, rank, 0.3), boolmat.RandomFactor(rng, 16, rank, 0.3)
		d := newTestDecomposition(t, x, Options{Rank: rank, Partitions: 4}, 2)
		update := func() {
			b.Set(0, 0, !b.Get(0, 0))
			if err := d.ex.setFactors(a, b, c); err != nil {
				t.Fatal(err)
			}
			if _, err := d.updateFactor(0); err != nil {
				t.Fatal(err)
			}
		}
		update() // iteration 1: tasks, lanes and the update's own state are made
		updateAllocs := testing.AllocsPerRun(20, update)

		type table struct {
			reg    *machineRegistry
			lo, hi int
		}
		var tables []table
		for _, reg := range d.ex.reg {
			for key := range reg.entries {
				tables = append(tables, table{reg, key.lo, key.hi})
			}
		}
		if len(tables) == 0 {
			t.Fatalf("rank %d: the update built no table", rank)
		}
		tableAllocs := testing.AllocsPerRun(20, func() {
			b.Set(0, 0, !b.Get(0, 0))
			for _, tb := range tables {
				tb.reg.cacheFor(b, tb.lo, tb.hi, d.ex.cfg.GroupBits)
			}
		})
		labelAllocs := testing.AllocsPerRun(20, func() { _ = pprof.WithLabels(d.ctx, d.updates[0].labels) })
		if updateAllocs != tableAllocs+labelAllocs {
			t.Errorf("rank %d: a warm A-update allocates %v objects; its %d tables cost %v and its labelled context %v",
				rank, updateAllocs, len(tables), tableAllocs, labelAllocs)
		}
	}
}
