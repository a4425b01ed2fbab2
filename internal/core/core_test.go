package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"dbtf/internal/bitvec"
	"dbtf/internal/boolmat"
	"dbtf/internal/cluster"
	"dbtf/internal/partition"
	"dbtf/internal/sumcache"
	"dbtf/internal/tensor"
	"dbtf/internal/trace"
)

func testCluster(machines int) *cluster.Cluster {
	return cluster.New(cluster.Config{Machines: machines})
}

// sinkFunc adapts a function to trace.Sink.
type sinkFunc func(*trace.Event)

func (f sinkFunc) Write(ev *trace.Event) error { f(ev); return nil }
func (sinkFunc) Close() error                  { return nil }

// tracedCluster is testCluster with the run's event stream handed to fn.
// Tracer.Emit calls its sink synchronously on the emitting goroutine, so a
// test that cancels from fn does so at a deterministic point of the run.
func tracedCluster(machines int, fn func(*trace.Event)) *cluster.Cluster {
	return cluster.New(cluster.Config{Machines: machines, Tracer: trace.New(sinkFunc(fn))})
}

func randomTensor(rng *rand.Rand, i, j, k int, density float64) *tensor.Tensor {
	var coords []tensor.Coord
	for a := 0; a < i; a++ {
		for b := 0; b < j; b++ {
			for c := 0; c < k; c++ {
				if rng.Float64() < density {
					coords = append(coords, tensor.Coord{I: a, J: b, K: c})
				}
			}
		}
	}
	return tensor.MustFromCoords(i, j, k, coords)
}

func plantedTensor(rng *rand.Rand, i, j, k, r int, density float64) (*tensor.Tensor, *boolmat.FactorMatrix, *boolmat.FactorMatrix, *boolmat.FactorMatrix) {
	a := boolmat.RandomFactor(rng, i, r, density)
	b := boolmat.RandomFactor(rng, j, r, density)
	c := boolmat.RandomFactor(rng, k, r, density)
	return tensor.Reconstruct(a, b, c), a, b, c
}

func TestDecomposeValidation(t *testing.T) {
	cl := testCluster(2)
	x := randomTensor(rand.New(rand.NewSource(1)), 4, 4, 4, 0.2)
	cases := []struct {
		name string
		x    *tensor.Tensor
		opt  Options
	}{
		{"nil tensor", nil, Options{Rank: 2}},
		{"zero rank", x, Options{Rank: 0}},
		{"rank too large", x, Options{Rank: 65}},
		{"negative maxiter", x, Options{Rank: 2, MaxIter: -1}},
		{"negative sets", x, Options{Rank: 2, InitialSets: -1}},
		{"negative partitions", x, Options{Rank: 2, Partitions: -1}},
		{"negative groupbits", x, Options{Rank: 2, GroupBits: -1}},
		{"groupbits above the cap", x, Options{Rank: 2, GroupBits: sumcache.MaxGroupBits + 1}},
		{"groupbits 64", x, Options{Rank: 2, GroupBits: 64}},
		{"negative tolerance", x, Options{Rank: 2, Tolerance: -5}},
		{"multiple sets with topfiber init", x, Options{Rank: 2, Init: InitTopFiber, InitialSets: 2}},
		{"unknown init scheme", x, Options{Rank: 2, Init: InitScheme(9)}},
		{"empty tensor", tensor.New(0, 3, 3), Options{Rank: 2}},
	}
	for _, tc := range cases {
		_, err := Decompose(context.Background(), tc.x, cl, tc.opt)
		if err == nil {
			t.Errorf("%s: no error", tc.name)
		}
		if tc.opt.GroupBits != 0 && !errors.Is(err, ErrGroupBits) {
			t.Errorf("%s: got %v, want ErrGroupBits", tc.name, err)
		}
		// 0 selects the default, so the bound a negative count breaks is 0.
		if tc.opt.Partitions < 0 && (err == nil || err.Error() != "core: Partitions -1 < 0") {
			t.Errorf("%s: got %v, want core: Partitions -1 < 0", tc.name, err)
		}
	}
}

// TestDecomposeRefusesOverWideTensor: a tensor whose mode-1 unfolding has
// 50,000² columns, beyond int32, is refused with the column guard's error
// before any stage runs, so nothing is retried.
func TestDecomposeRefusesOverWideTensor(t *testing.T) {
	cl := testCluster(2)
	_, err := Decompose(context.Background(), tensor.New(2, 50000, 50000), cl, Options{Rank: 2})
	_, guard := tensor.Mode1.Columns(2, 50000, 50000)
	if err == nil || guard == nil || err.Error() != "core: "+guard.Error() {
		t.Fatalf("got %v, want core: %v", err, guard)
	}
	if st := cl.Stats(); st.Stages != 0 || st.Tasks != 0 || st.Retries != 0 {
		t.Fatalf("%d stages, %d tasks, %d retries ran before the refusal", st.Stages, st.Tasks, st.Retries)
	}
}

func TestDecomposeReducesError(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, _, _, _ := plantedTensor(rng, 20, 20, 20, 3, 0.2)
	cl := testCluster(4)
	res, err := Decompose(context.Background(), x, cl, Options{Rank: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Error >= int64(x.NNZ()) {
		t.Fatalf("final error %d not better than trivial all-zero factorization %d", res.Error, x.NNZ())
	}
	// The reported error must equal the true reconstruction error.
	if want := tensor.ReconstructError(x, res.A, res.B, res.C); res.Error != want {
		t.Fatalf("reported error %d != recomputed %d", res.Error, want)
	}
}

func TestDecomposeExactRecoveryRank1(t *testing.T) {
	// A single dense block is a rank-1 tensor; DBTF must recover it
	// exactly from almost any initialization.
	var coords []tensor.Coord
	for i := 4; i < 12; i++ {
		for j := 2; j < 9; j++ {
			for k := 5; k < 13; k++ {
				coords = append(coords, tensor.Coord{I: i, J: j, K: k})
			}
		}
	}
	x := tensor.MustFromCoords(16, 16, 16, coords)
	res, err := Decompose(context.Background(), x, testCluster(4), Options{Rank: 1, InitialSets: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Error != 0 {
		t.Fatalf("rank-1 block not recovered exactly: error %d", res.Error)
	}
}

func TestInitialSets(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := randomTensor(rng, 12, 12, 12, 0.1)
	res, err := Decompose(context.Background(), x, testCluster(4), Options{Rank: 3, InitialSets: 4, MaxIter: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InitialErrors) != 4 {
		t.Fatalf("InitialErrors has %d entries, want 4", len(res.InitialErrors))
	}
	min := res.InitialErrors[0]
	for _, e := range res.InitialErrors {
		if e < min {
			min = e
		}
	}
	if res.Error != min {
		t.Fatalf("final error %d != best initial %d after 1 iteration", res.Error, min)
	}
}

func TestConvergedFlag(t *testing.T) {
	// With a generous tolerance the run must stop early and set Converged.
	rng := rand.New(rand.NewSource(7))
	x := randomTensor(rng, 10, 10, 10, 0.1)
	res, err := Decompose(context.Background(), x, testCluster(2), Options{Rank: 2, MaxIter: 50, Tolerance: 1 << 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("Converged not set")
	}
	if res.Iterations >= 50 {
		t.Fatalf("did not stop early: %d iterations", res.Iterations)
	}
}

// referenceUpdate is a brute-force single-machine implementation of
// Algorithm 4: for every column and row it evaluates both candidate values
// against the fully materialized Khatri–Rao product and commits the value
// with the smaller full-row error (ties go to 0). The distributed cached
// updater must make identical decisions.
func referenceUpdate(u *tensor.Unfolded, a, mf, ms *boolmat.FactorMatrix) {
	krT := boolmat.KhatriRao(mf, ms).Matrix().Transpose() // R × Q
	q := u.NumCols
	xRows := make([]*bitvec.BitVec, u.NumRows)
	for r := 0; r < u.NumRows; r++ {
		xRows[r] = bitvec.FromIndices32(q, u.Row(r))
	}
	sum := bitvec.New(q)
	for c := 0; c < a.Rank(); c++ {
		bit := uint64(1) << uint(c)
		for r := 0; r < a.Rows(); r++ {
			var errs [2]int
			for cand := 0; cand < 2; cand++ {
				mask := a.RowMask(r) &^ bit
				if cand == 1 {
					mask |= bit
				}
				sum.Zero()
				for m := mask; m != 0; m &= m - 1 {
					rr := 0
					for mm := m ^ (m & (m - 1)); mm > 1; mm >>= 1 {
						rr++
					}
					sum.Or(krT.Row(rr))
				}
				errs[cand] = xRows[r].XorCount(sum)
			}
			a.Set(r, c, errs[1] < errs[0])
		}
	}
}

// newTestDecomposition returns a driver with its executor set up
// (partitioned) but no factors installed.
func newTestDecomposition(t testing.TB, x *tensor.Tensor, opt Options, machines int) *decomposition {
	t.Helper()
	return newTestDecompositionOn(t, x, opt, testCluster(machines))
}

// newTestDecompositionOn is newTestDecomposition on the caller's cluster,
// whose remote executors, if it has any, are set up too.
func newTestDecompositionOn(t testing.TB, x *tensor.Tensor, opt Options, cl *cluster.Cluster) *decomposition {
	t.Helper()
	cfg, err := opt.withDefaults(cl.Machines())
	if err != nil {
		t.Fatal(err)
	}
	i, j, k := x.Dims()
	d := &decomposition{ctx: context.Background(), x: x, cl: cl, opt: opt,
		ex: newExecutor(cfg, [3]int{i, j, k}, cl.Machines(), cl.MachineFor, lookahead)}
	if err := d.partitionAll(NewPartitions(x, cfg.Partitions, cfg.Machines)); err != nil {
		t.Fatal(err)
	}
	if err := d.shipSetup(); err != nil {
		t.Fatal(err)
	}
	return d
}

// updateMode installs (a, b, c), runs the mode's factor update in place and
// returns what its commits changed.
func updateMode(t *testing.T, d *decomposition, mode int, a, b, c *boolmat.FactorMatrix) committed {
	t.Helper()
	if err := d.ex.setFactors(a, b, c); err != nil {
		t.Fatal(err)
	}
	update, err := d.updateFactor(mode)
	if err != nil {
		t.Fatal(err)
	}
	return update
}

// TestMachineLossRebuildsInheritedTables: a simulated machine loss does the
// work a real one does. A machine lost between two stages of an update
// takes its cache tables with it, so by the end of the next stage
// the survivor that inherited its partition has built — in its own registry,
// before any setFactors — a table for every row range the partition reads,
// the cut ranges no partition of its own shares included.
func TestMachineLossRebuildsInheritedTables(t *testing.T) {
	const machines, rank = 4, 4
	// 6-wide PVM products cut by every boundary of 4 partitions over 30
	// columns: each partition reads row ranges of B that are its alone.
	x, a, b, c := plantedTensor(rand.New(rand.NewSource(9)), 8, 6, 5, rank, 0.3)
	var d *decomposition
	lost, lossStage, checked := -1, int64(-1), false
	cl := cluster.New(cluster.Config{
		Machines: machines,
		Faults:   &cluster.FaultPlan{Seed: 11, MachineLossRate: 0.1},
		Tracer: trace.New(sinkFunc(func(ev *trace.Event) {
			switch {
			case ev.Type == trace.MachineLoss && lost < 0:
				lost, lossStage = ev.Machine, ev.Stage
			case ev.Type == trace.StageEnd && ev.Stage == lossStage && lossStage >= 2:
				// Every task of the stage is joined; nothing else runs.
				checked = true
				if n := len(d.ex.reg[lost].entries); n != 0 {
					t.Errorf("lost machine %d still registers %d tables", lost, n)
				}
				survivor := d.cl.MachineFor(lost)
				ms := d.ex.f[modeRoles[0].cached]
				for bi := range d.ex.px[0].Parts[lost].Blocks {
					blk := &d.ex.px[0].Parts[lost].Blocks[bi]
					key := registryKey{m: ms, version: ms.Version(), lo: blk.InnerLo, hi: blk.InnerLo + blk.Width()}
					if _, ok := d.ex.reg[survivor].entries[key]; !ok {
						t.Errorf("survivor %d holds no table over rows [%d,%d) of partition %d, inherited from machine %d",
							survivor, key.lo, key.hi, lost, lost)
					}
				}
			}
		})),
	})
	cfg, err := Options{Rank: rank}.withDefaults(machines)
	if err != nil {
		t.Fatal(err)
	}
	d = &decomposition{ctx: context.Background(), x: x, cl: cl, ex: newExecutor(cfg, [3]int{8, 6, 5}, machines, cl.MachineFor, lookahead)}
	cl.OnMachineLoss(d.machineLost)
	if err := d.partitionAll(NewPartitions(x, cfg.Partitions, cfg.Machines)); err != nil { // stage 0
		t.Fatal(err)
	}
	const stages = (rank + lookahead - 1) / lookahead
	updateMode(t, d, 0, a, b, c) // stages 1..stages, one per lookahead columns
	if lossStage < 2 || lossStage > stages || !checked {
		t.Fatalf("first loss at stage %d (checked %v), want one between two stages of the update (stages 2..%d): pick another fault seed", lossStage, checked, stages)
	}
}

func TestUpdateFactorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 25; trial++ {
		i, j, k := rng.Intn(10)+2, rng.Intn(10)+2, rng.Intn(10)+2
		r := rng.Intn(6) + 1
		x := randomTensor(rng, i, j, k, 0.15)
		a := boolmat.RandomFactor(rng, i, r, 0.3)
		b := boolmat.RandomFactor(rng, j, r, 0.3)
		c := boolmat.RandomFactor(rng, k, r, 0.3)

		d := newTestDecomposition(t, x, Options{Rank: r, Partitions: rng.Intn(5) + 1}, 3)
		got := a.Clone()
		updateMode(t, d, 0, got, b, c)
		want := a.Clone()
		referenceUpdate(x.Unfold(tensor.Mode1), want, c, b)
		if !got.Equal(want) {
			t.Fatalf("trial %d (%dx%dx%d r=%d): distributed update differs from reference\ngot:\n%swant:\n%s",
				trial, i, j, k, r, got, want)
		}
	}
}

func TestUpdateFactorModes2And3MatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := randomTensor(rng, 7, 8, 9, 0.15)
	r := 3
	a := boolmat.RandomFactor(rng, 7, r, 0.3)
	b := boolmat.RandomFactor(rng, 8, r, 0.3)
	c := boolmat.RandomFactor(rng, 9, r, 0.3)
	d := newTestDecomposition(t, x, Options{Rank: r, Partitions: 4}, 2)

	gotB := b.Clone()
	updateMode(t, d, 1, a, gotB, c)
	wantB := b.Clone()
	referenceUpdate(x.Unfold(tensor.Mode2), wantB, c, a)
	if !gotB.Equal(wantB) {
		t.Fatal("mode-2 update differs from reference")
	}

	gotC := c.Clone()
	updateMode(t, d, 2, a, b, gotC)
	wantC := c.Clone()
	referenceUpdate(x.Unfold(tensor.Mode3), wantC, b, a)
	if !gotC.Equal(wantC) {
		t.Fatal("mode-3 update differs from reference")
	}
}

// TestShuffleVolumeLemma6: the set-up ships every nonzero once in a mode-1
// body, and again in a mode-2 or mode-3 body only where its partition there
// is homed on another machine than its mode-1 partition — at most 3|X|
// (Lemma 6), counted exactly by brute force over the coordinates. The run
// charges the bodies' bytes, and no body is larger than its plain form,
// which carries nothing. With N = M and N | K the mode-1 and mode-2
// partitions on a machine are the same k-slabs, so a mode-2 body is its
// rows' zero counts alone: a bit each, padded to a byte.
func TestShuffleVolumeLemma6(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, tc := range []struct {
		name            string
		i, j, k, n, m   int
		mode2CountsOnly bool
	}{
		{name: "N=M=4, N|K", i: 12, j: 10, k: 8, n: 4, m: 4, mode2CountsOnly: true},
		{name: "N=7, M=3", i: 9, j: 8, k: 7, n: 7, m: 3},
		{name: "N<M", i: 10, j: 9, k: 8, n: 2, m: 3},
		{name: "I=1", i: 1, j: 9, k: 8, n: 4, m: 3},
		{name: "K=1", i: 8, j: 9, k: 1, n: 5, m: 2},
	} {
		x := randomTensor(rng, tc.i, tc.j, tc.k, 0.2)
		dims := [3]int{tc.i, tc.j, tc.k}
		opt := Options{Rank: 2, MaxIter: 1, Seed: 1, Partitions: tc.n}
		res, err := Decompose(context.Background(), x, testCluster(tc.m), opt)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := opt.withDefaults(tc.m)
		if err != nil {
			t.Fatal(err)
		}
		px := buildPartitions(t, x, cfg)
		defer releasePartitions(px)

		// What the blobs ship: their body bytes, and the row counts in them.
		var shipped, bytes int64
		for home := 0; home < tc.m; home++ {
			blob := encodeSetup(cfg, dims, home, px)
			bytes += int64(len(blob) - setupHeaderLen)
			shipped += shippedNonzeros(t, blob[setupHeaderLen:], px, home, tc.m)
		}
		// What they should: a nonzero per mode whose partition there is homed
		// apart from its mode-1 partition, mode 1 included.
		homeOf := func(p *partition.Partitioned, col int) int {
			for pi, part := range p.Parts {
				if part.Lo <= col && col < part.Hi {
					return pi % tc.m
				}
			}
			t.Fatalf("%s: column %d in no partition", tc.name, col)
			return -1
		}
		var want int64
		for _, c := range x.Coords() {
			h1 := homeOf(px[0], c.J+c.K*tc.j)
			want++
			if homeOf(px[1], c.I+c.K*tc.i) != h1 {
				want++
			}
			if homeOf(px[2], c.I+c.J*tc.i) != h1 {
				want++
			}
		}
		if shipped != want || res.Stats.ShuffledBytes != bytes {
			t.Errorf("%s: the blobs ship %d nonzeros in %d B, want %d; the run charged %d B", tc.name, shipped, bytes, want, res.Stats.ShuffledBytes)
		}
		for m, u := range x.UnfoldAll() {
			plain := partition.Build(u, tc.n)
			for pi := range plain.Parts {
				if got, most := px[m].ReshipBytes(pi), plain.ReshipBytes(pi); got > most || m == 1 && tc.mode2CountsOnly && got != int64(u.NumRows+7)/8 {
					t.Errorf("%s: mode %d partition %d body is %d B; plain %d B, %d rows", tc.name, m+1, pi, got, most, u.NumRows)
				}
			}
			plain.Release()
		}
	}
}

// shippedNonzeros sums the row counts of the bodies a set-up blob for
// machine home of M carries, header stripped: every mode's partitions homed
// there, each rows of a count followed by as many gaps, read bit by bit as
// Exp-Golomb codes — the count of order 0, a row's gaps of order
// ⌊log2⌊W/count⌋⌋ − 2 (at least 0) in a partition W columns wide — and
// zero-padded to a byte.
func shippedNonzeros(t *testing.T, bodies []byte, px [3]*partition.Partitioned, home, machines int) int64 {
	t.Helper()
	pos := 0
	bit := func() uint64 {
		if pos >= 8*len(bodies) {
			t.Fatal("a body is cut short")
		}
		pos++
		return uint64(bodies[(pos-1)/8] >> (7 - (pos-1)%8) & 1)
	}
	next := func(k int) uint64 {
		zeros := 0
		for bit() == 0 {
			zeros++
		}
		v := uint64(1)
		for n := 0; n < zeros+k; n++ {
			v = v<<1 | bit()
		}
		return v - 1<<k
	}
	var total int64
	for _, p := range px {
		for pi := home; pi < len(p.Parts); pi += machines {
			width := p.Parts[pi].Width()
			for r := 0; r < p.NumRows; r++ {
				count := next(0)
				for c := uint64(0); c < count; c++ {
					next(max(bits.Len(uint(width)/uint(count))-3, 0))
				}
				total += int64(count)
			}
			pos = (pos + 7) / 8 * 8
		}
	}
	if pos != 8*len(bodies) {
		t.Fatalf("%d bits after the bodies", 8*len(bodies)-pos)
	}
	return total
}

// TestBroadcastVolumeLemma7: the broadcast is the factors at each install
// and the body of each stage's push of its flips, sent to every machine:
// BroadcastBytes is exactly M·(installs·⌊(I+J+K)·R/8⌋ + Σ flip bodies). An
// install happens for each initial set, for the kept set when it was not
// the last one tried, and for a resumed checkpoint, never for an iteration
// on the matrices the machines hold; a stage pushes exactly when its commit
// flipped an entry. The simulator, which encodes nothing, prices the same
// bytes, and doubling M doubles them exactly.
func TestBroadcastVolumeLemma7(t *testing.T) {
	const machines, rank = 4, 3
	x, _, _, _ := plantedTensor(rand.New(rand.NewSource(16)), 12, 12, 12, rank, 0.3)
	factorBytes := int64((12 + 12 + 12) * rank / 8)
	run := func(name string, opt Options, installs int64) *Result {
		t.Helper()
		ht := newHostTransport(machines)
		res, err := Decompose(context.Background(), x, cluster.New(cluster.Config{Machines: machines, Transport: ht}), opt)
		if err != nil && !errors.Is(err, ErrPreempted) {
			t.Fatalf("%s: %v", name, err)
		}
		ht.noteFlips()
		if got := ht.factorPushes.Load(); got != installs {
			t.Errorf("%s: %d factor installs, want %d", name, got, installs)
		}
		if pushes := ht.columnPushes.Load(); pushes != ht.flipStages || (installs > 1 && pushes == 0) {
			t.Errorf("%s: %d flip pushes, %d stages flipped an entry", name, pushes, ht.flipStages)
		}
		if res == nil {
			return nil
		}
		if want := machines * (installs*factorBytes + ht.flipBodies.Load()); res.Stats.BroadcastBytes != want {
			t.Errorf("%s: broadcast %d B, want %d·(%d·%d + %d) = %d", name, res.Stats.BroadcastBytes,
				machines, installs, factorBytes, ht.flipBodies.Load(), want)
		}
		return res
	}

	opt := Options{Rank: rank, Seed: 1, MaxIter: 4, MinIter: 4, Partitions: 4}
	one := run("L=1", opt, 1)
	if one.Stats.BroadcastBytes == machines*factorBytes {
		t.Fatal("no stage flipped an entry: pick another seed")
	}
	for _, m := range []int{machines, 2 * machines} {
		sim, err := Decompose(context.Background(), x, testCluster(m), opt)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(m/machines) * one.Stats.BroadcastBytes; sim.Stats.BroadcastBytes != want {
			t.Errorf("simulated M=%d: broadcast %d B, want %d", m, sim.Stats.BroadcastBytes, want)
		}
	}

	// Two initial sets: each is installed, and the kept one again when the
	// second was tried after it.
	keptFirst := map[bool]bool{}
	for seed := int64(1); seed <= 20 && len(keptFirst) < 2; seed++ {
		two := opt
		two.Seed, two.InitialSets = seed, 2
		sim, err := Decompose(context.Background(), x, testCluster(machines), two)
		if err != nil {
			t.Fatal(err)
		}
		first := sim.InitialErrors[0] <= sim.InitialErrors[1]
		if keptFirst[first] {
			continue
		}
		keptFirst[first] = true
		installs := int64(2)
		if first {
			installs = 3
		}
		run(fmt.Sprintf("L=2 seed %d, kept set first=%v", seed, first), two, installs)
	}
	if len(keptFirst) != 2 {
		t.Fatal("no two seeds in 1..20 keep the first of two sets and the last")
	}

	// A resumed run installs the checkpoint's factors, once.
	dir := t.TempDir()
	ck := opt
	ck.CheckpointDir = dir
	ck.Boundary = func(t int, _ bool) Boundary {
		if t == 2 {
			return BoundaryYield
		}
		return BoundaryContinue
	}
	run("evicted after iteration 2", ck, 1)
	ck.Boundary, ck.Resume = nil, true
	if res := run("resumed", ck, 1); !res.A.Equal(one.A) || !res.B.Equal(one.B) || !res.C.Equal(one.C) || res.Error != one.Error {
		t.Error("the resumed run's factors differ from the uninterrupted run's")
	}
}

func TestCollectVolumeLemma7(t *testing.T) {
	// Collect traffic scales with the partition count N: the values the eval
	// replies stand for, N·rows·lanes a stage as their headers state them,
	// exactly. Their bytes depend on the values and on how many rows share
	// a group, so they are held only to the plain body's ceiling: at most
	// five bytes a value.
	rng := rand.New(rand.NewSource(17))
	x := randomTensor(rng, 12, 12, 12, 0.1)
	run := func(partitions int) (values, collected int64) {
		ht := newHostTransport(4)
		opt := Options{Rank: 3, MaxIter: 2, Seed: 1, Partitions: partitions}
		res, err := Decompose(context.Background(), x, cluster.New(cluster.Config{Machines: 4, Transport: ht}), opt)
		if err != nil {
			t.Fatal(err)
		}
		return ht.evalValues.Load(), res.Stats.CollectedBytes
	}
	v2, c2 := run(2)
	v8, c8 := run(8)
	if v2 == 0 || v8 != 4*v2 {
		t.Fatalf("eval replies stand for %d values (N=8) and %d (N=2), want exactly 4x", v8, v2)
	}
	if c2 > 5*v2 || c8 > 5*v8 {
		t.Fatalf("collect bytes %d for %d values (N=2), %d for %d (N=8): over five bytes a value", c2, v2, c8, v8)
	}
}

func TestInitRandomCollapsesOnSparseTensors(t *testing.T) {
	// Documents why InitFiberSample is the default: the paper-literal
	// uniform random initialization drives every factor to zero on sparse
	// tensors, leaving the trivial error |X|.
	rng := rand.New(rand.NewSource(19))
	x := randomTensor(rng, 16, 16, 16, 0.05)
	res, err := Decompose(context.Background(), x, testCluster(2), Options{Rank: 4, Seed: 3, Init: InitRandom})
	if err != nil {
		t.Fatal(err)
	}
	if res.Error != int64(x.NNZ()) {
		t.Fatalf("expected collapse to trivial error %d, got %d", x.NNZ(), res.Error)
	}
	if res.A.OnesCount() != 0 {
		t.Fatalf("expected all-zero factors, A has %d ones", res.A.OnesCount())
	}
}

func TestDecomposeAllOnesTensor(t *testing.T) {
	var coords []tensor.Coord
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			for k := 0; k < 6; k++ {
				coords = append(coords, tensor.Coord{I: i, J: j, K: k})
			}
		}
	}
	x := tensor.MustFromCoords(6, 6, 6, coords)
	res, err := Decompose(context.Background(), x, testCluster(2), Options{Rank: 1, InitialSets: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Error != 0 {
		t.Fatalf("all-ones tensor is rank 1; error %d", res.Error)
	}
}

func TestMinIterValidationAndEffect(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	x := randomTensor(rng, 10, 10, 10, 0.1)
	if _, err := Decompose(context.Background(), x, testCluster(2), Options{Rank: 2, MaxIter: 3, MinIter: 5}); err == nil {
		t.Fatal("MinIter > MaxIter accepted")
	}
	if _, err := Decompose(context.Background(), x, testCluster(2), Options{Rank: 2, MinIter: -1}); err == nil {
		t.Fatal("negative MinIter accepted")
	}
	// MinIter = MaxIter forces the full sweep count even when converged.
	res, err := Decompose(context.Background(), x, testCluster(2), Options{Rank: 2, MaxIter: 6, MinIter: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 6 {
		t.Fatalf("iterations = %d, want 6 with MinIter=MaxIter", res.Iterations)
	}
}

func TestFiberSampleInitAnchorsToData(t *testing.T) {
	// Every initial component must lie inside the data's support: the
	// seeded columns only contain indices of actual nonzeros.
	rng := rand.New(rand.NewSource(22))
	x := randomTensor(rng, 12, 12, 12, 0.05)
	opt, err := (&Options{Rank: 4}).withDefaults(2)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := initialSet(rand.New(rand.NewSource(1)), x, opt)
	for r := 0; r < 4; r++ {
		for _, i := range a.Column(r).Indices() {
			found := false
			for _, co := range x.Coords() {
				if co.I == i {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("component %d contains row %d with no nonzeros", r, i)
			}
		}
	}
	_ = b
	_ = c
}

func TestInitTopFiberSeedIndependent(t *testing.T) {
	// The topfiber scheme consumes no randomness: two runs under different
	// seeds are bit-identical, and so is a run with any InitialSetsAuto
	// spelling of the single-set default.
	rng := rand.New(rand.NewSource(31))
	x, _, _, _ := plantedTensor(rng, 16, 14, 12, 3, 0.3)
	base := Options{Rank: 3, MaxIter: 4, MinIter: 4, Init: InitTopFiber}
	r1, err := Decompose(context.Background(), x, testCluster(4), base)
	if err != nil {
		t.Fatal(err)
	}
	seeded := base
	seeded.Seed = 999
	seeded.InitialSets = 1
	r2, err := Decompose(context.Background(), x, testCluster(4), seeded)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(r1, r2) {
		t.Fatal("topfiber runs under different seeds differ; the scheme must not consume randomness")
	}
}

func TestInitTopFiberExactRecoveryRank1(t *testing.T) {
	// A rank-1 tensor's top fiber is inside the planted block, so the seed
	// already reconstructs it and the first iteration keeps error 0.
	rng := rand.New(rand.NewSource(35))
	x, _, _, _ := plantedTensor(rng, 20, 20, 20, 1, 0.4)
	res, err := Decompose(context.Background(), x, testCluster(2), Options{
		Rank: 1, MaxIter: 5, Init: InitTopFiber})
	if err != nil {
		t.Fatal(err)
	}
	if res.Error != 0 {
		t.Fatalf("rank-1 recovery error %d, want 0", res.Error)
	}
}

func TestInitialSetsAutoSentinelMatchesExplicitOne(t *testing.T) {
	// Regression for the zero-as-unset fix: the named sentinel and the
	// explicit default must resolve to the same run.
	rng := rand.New(rand.NewSource(37))
	x, _, _, _ := plantedTensor(rng, 12, 12, 12, 2, 0.3)
	auto, err := Decompose(context.Background(), x, testCluster(2),
		Options{Rank: 2, MaxIter: 3, MinIter: 3, Seed: 4, InitialSets: InitialSetsAuto})
	if err != nil {
		t.Fatal(err)
	}
	one, err := Decompose(context.Background(), x, testCluster(2),
		Options{Rank: 2, MaxIter: 3, MinIter: 3, Seed: 4, InitialSets: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(auto, one) {
		t.Fatal("InitialSetsAuto does not match an explicit InitialSets of 1")
	}
}

func TestInitSchemeStringAndParseRoundtrip(t *testing.T) {
	for _, scheme := range []InitScheme{InitFiberSample, InitRandom, InitTopFiber} {
		got, err := ParseInitScheme(scheme.String())
		if err != nil || got != scheme {
			t.Fatalf("ParseInitScheme(%q) = %v, %v; want %v", scheme.String(), got, err, scheme)
		}
	}
	if got, err := ParseInitScheme(""); err != nil || got != InitFiberSample {
		t.Fatalf("ParseInitScheme(\"\") = %v, %v; want the default", got, err)
	}
	if _, err := ParseInitScheme("assoc"); err == nil {
		t.Fatal("unknown scheme name parsed without error")
	}
}
