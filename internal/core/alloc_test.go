//go:build !race

// Under -race the runtime allocates on its own account, so an allocation
// count is the program's only without it.

package core

import (
	"io"
	"math/rand"
	"runtime/pprof"
	"slices"
	"testing"

	"dbtf/internal/boolmat"
	"dbtf/internal/cluster"
	"dbtf/internal/partition"
	"dbtf/internal/slab"
	"dbtf/internal/tensor"
	"dbtf/internal/trace"
)

// TestEndIterationUntracedAllocs: closing an iteration allocates nothing,
// with tracing off or into a sink that borrows, as JSONL does. The trace
// event stays on the stack and points at the decomposition's own copies of
// the error, improvement and flip count; pointing at the parameters moved
// all three to the heap on every call, traced or not.
func TestEndIterationUntracedAllocs(t *testing.T) {
	d := &decomposition{cl: testCluster(2)}
	if allocs := testing.AllocsPerRun(100, func() { d.endIteration(2, 10, 1, 3) }); allocs != 0 {
		t.Errorf("endIteration on a nil tracer allocates %v objects, want 0", allocs)
	}
	d.cl = cluster.New(cluster.Config{Machines: 2, Tracer: trace.New(trace.NewJSONL(io.Discard))})
	if allocs := testing.AllocsPerRun(100, func() { d.endIteration(2, 10, 1, 3) }); allocs != 0 {
		t.Errorf("endIteration into a JSONL sink allocates %v objects, want 0", allocs)
	}
}

// TestWarmFactorUpdateAllocs pins what a factor update allocates once its
// run is warm (iteration 2 on, simulator): the cache tables its first stage
// builds and its one labelled context, nothing else — at rank 8 (three
// stages) and rank 32 (eleven) alike, so nothing is made per stage, per
// column task rebuild, per flip logged, priced or pushed, or per update
// beside them. Each update starts from A's first rows again, so every
// round's commits flip entries, and follows a flipped entry of the cached
// matrix, as an iteration's commits leave it (re-installing the same
// matrices changes nothing), so it rebuilds every partition's task and
// every table it reads. What the tables cost is measured by building the
// same ones through the registry alone: it differs between the ranks (a
// rank-8 table's popcounts are too small for the slab pool), the remainder
// may not.
func TestWarmFactorUpdateAllocs(t *testing.T) {
	x := randomTensor(rand.New(rand.NewSource(41)), 24, 20, 16, 0.2)
	for _, rank := range []int{8, 32} {
		rng := rand.New(rand.NewSource(42))
		a, b, c := boolmat.RandomFactor(rng, 24, rank, 0.3), boolmat.RandomFactor(rng, 20, rank, 0.3), boolmat.RandomFactor(rng, 16, rank, 0.3)
		rows := make([]uint64, a.Rows())
		for r := range rows {
			rows[r] = a.RowMask(r)
		}
		d := newTestDecomposition(t, x, Options{Rank: rank, Partitions: 4}, 2)
		var flips int64
		update := func() {
			for r, m := range rows {
				a.SetRowMask(r, m)
			}
			b.Set(0, 0, !b.Get(0, 0))
			if err := d.ex.setFactors(a, b, c); err != nil {
				t.Fatal(err)
			}
			done, err := d.updateFactor(0)
			if err != nil {
				t.Fatal(err)
			}
			flips = done.flips
		}
		update() // iteration 1: tasks, lanes and the update's own state are made
		updateAllocs := testing.AllocsPerRun(20, update)
		if flips == 0 {
			t.Fatalf("rank %d: a warm A-update flipped no entry, so no commit or push ran under the pin", rank)
		}

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

// TestWarmTotalErrorAllocs: a total-error task whose machine holds its
// tables makes two objects, the partition's table list and its summation
// scratch, whatever the rows, the rank and the blocks' density: nothing per
// block or per row, dense (the packed rows' Hamming distance) or sparse
// (the nonzeros' walk).
func TestWarmTotalErrorAllocs(t *testing.T) {
	dense := map[bool]bool{}
	for _, rows := range []int{24, 96} {
		for _, density := range []float64{0.2, 0.004} {
			x := randomTensor(rand.New(rand.NewSource(45)), rows, 20, 16, density)
			for _, rank := range []int{8, 32} {
				rng := rand.New(rand.NewSource(46))
				d := newTestDecomposition(t, x, Options{Rank: rank, Partitions: 4}, 2)
				if err := d.ex.setFactors(boolmat.RandomFactor(rng, rows, rank, 0.3), boolmat.RandomFactor(rng, 20, rank, 0.3), boolmat.RandomFactor(rng, 16, rank, 0.3)); err != nil {
					t.Fatal(err)
				}
				parts := len(d.ex.px[0].Parts)
				for _, p := range d.ex.px[0].Parts {
					for bi := range p.Blocks {
						b := &p.Blocks[bi]
						dense[b.Dense()] = true
					}
				}
				totalError := func() {
					for pi := 0; pi < parts; pi++ {
						if _, err := d.ex.totalError(pi); err != nil {
							t.Fatal(err)
						}
					}
				}
				totalError() // the machines build their tables
				if allocs := testing.AllocsPerRun(20, totalError); allocs != float64(2*parts) {
					t.Errorf("%d rows, density %v, rank %d: a warm total error over %d partitions allocates %v objects, want %d",
						rows, density, rank, parts, allocs, 2*parts)
				}
			}
		}
	}
	if !dense[true] || !dense[false] {
		t.Errorf("the tensors' mode-1 blocks are dense %v and sparse %v, want both", dense[true], dense[false])
	}
}

// TestCarriedSetupAllocs: leaving out what partition.NewCarry carries costs
// the coordinator's set-up no object. Building a run's three partitionings from
// the coordinate list with their bodies sized for its machines allocates
// exactly as many objects as the plain builds of the same tensor, and
// encodeSetup makes each machine's blob as one object: these are below the
// slab pool's floor, a plain make. A blob of a pooled size, set-up or
// install, costs no object once the pool is warm, when the transport it was
// handed to returns it at its close.
func TestCarriedSetupAllocs(t *testing.T) {
	x := randomTensor(rand.New(rand.NewSource(44)), 24, 20, 16, 0.2)
	dims := [3]int{24, 20, 16}
	cfg := runConfig{Rank: 4, Partitions: 7, GroupBits: 4, Machines: 3}
	build := func(carry func(m int) partition.Carry) (allocs float64, shuffled int64) {
		allocs = testing.AllocsPerRun(20, func() {
			shuffled = 0
			for m := range dims {
				px := partition.FromTensor(x, tensor.Mode(m+1), cfg.Partitions, carry(m))
				shuffled += px.ShuffleBytes
				px.Release()
			}
		})
		return allocs, shuffled
	}
	plainAllocs, plainBytes := build(func(int) partition.Carry { return partition.Carry{} })
	carriedAllocs, carriedBytes := build(func(m int) partition.Carry {
		return partition.NewCarry(dims, tensor.Mode(m+1), cfg.Machines, cfg.Partitions)
	})
	if carriedAllocs != plainAllocs || carriedBytes >= plainBytes {
		t.Errorf("the carried builds allocate %v objects for %d B of bodies, the plain ones %v for %d B",
			carriedAllocs, carriedBytes, plainAllocs, plainBytes)
	}

	px := buildPartitions(t, x, cfg)
	defer releasePartitions(px)
	for home := 0; home < cfg.Machines; home++ {
		if allocs := testing.AllocsPerRun(20, func() { encodeSetup(cfg, dims, home, px) }); allocs != 1 {
			t.Errorf("machine %d's set-up blob takes %v objects, want 1", home, allocs)
		}
	}

	big := randomTensor(rand.New(rand.NewSource(45)), 64, 48, 40, 0.1)
	bigDims := [3]int{64, 48, 40}
	bigPx := buildPartitions(t, big, cfg)
	defer releasePartitions(bigPx)
	for home := 0; home < cfg.Machines; home++ {
		if n := len(encodeSetup(cfg, bigDims, home, bigPx)); n < 2048 {
			t.Fatalf("machine %d's set-up blob is %d B, below the pool's floor", home, n)
		}
		if allocs := testing.AllocsPerRun(20, func() { slab.PutBytes(encodeSetup(cfg, bigDims, home, bigPx)) }); allocs != 0 {
			t.Errorf("machine %d's pooled set-up blob takes %v objects warm, want 0", home, allocs)
		}
	}
	rng := rand.New(rand.NewSource(46))
	a, b, c := boolmat.RandomFactor(rng, 200, 8, 0.3), boolmat.RandomFactor(rng, 150, 8, 0.3), boolmat.RandomFactor(rng, 100, 8, 0.3)
	if n, want := len(encodeFactors(a, b, c)), a.BinarySize()+b.BinarySize()+c.BinarySize(); n != want {
		t.Fatalf("the install blob is %d B, want %d", n, want)
	}
	if allocs := testing.AllocsPerRun(20, func() { slab.PutBytes(encodeFactors(a, b, c)) }); allocs != 0 {
		t.Errorf("a pooled install blob takes %v objects warm, want 0", allocs)
	}
}

// TestGroupedDecodeAllocs: the driver's decode of an eval reply —
// grouping the partition's rows as the task did, reading the rows with
// hits, walking the task's lookups to rebuild the bases, expanding the
// lanes — allocates nothing once the partition's split exists, and yields
// the task's lanes.
func TestGroupedDecodeAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const rank = 6
	x := randomTensor(rng, 24, 20, 16, 0.02)
	a := repeatedRows(rng, 24, rank, 3)
	d := newTestDecomposition(t, x, Options{Rank: rank, Partitions: 2}, 2)
	if err := d.ex.setFactors(a, boolmat.RandomFactor(rng, 20, rank, 0.4), boolmat.RandomFactor(rng, 16, rank, 0.4)); err != nil {
		t.Fatal(err)
	}
	u := newFactorUpdate(d, 0)
	u.a, u.span = a, lookahead
	payload, want := stageReply(t, d.ex, 0, 0)
	if allocs := testing.AllocsPerRun(20, func() {
		if err := u.evalSink(0, payload); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("decoding a reply allocates %v objects, want 0", allocs)
	}
	if got := u.parts[0].deltas[:len(want)]; !slices.Equal(got, want) {
		t.Errorf("decoded lanes %v, the task's %v", got, want)
	}
}
