package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"dbtf/internal/bitvec"
	"dbtf/internal/boolmat"
	"dbtf/internal/cluster"
	"dbtf/internal/tensor"
	"dbtf/internal/trace"
	"dbtf/internal/transport"
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
		{"negative tolerance", x, Options{Rank: 2, Tolerance: -5}},
		{"multiple sets with topfiber init", x, Options{Rank: 2, Init: InitTopFiber, InitialSets: 2}},
		{"unknown init scheme", x, Options{Rank: 2, Init: InitScheme(9)}},
		{"empty tensor", tensor.New(0, 3, 3), Options{Rank: 2}},
	}
	for _, tc := range cases {
		if _, err := Decompose(context.Background(), tc.x, cl, tc.opt); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
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

func TestDecomposeErrorMonotoneAcrossIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randomTensor(rng, 16, 16, 16, 0.05)
	var errs []int64
	cl := tracedCluster(4, func(ev *trace.Event) {
		if ev.Type == trace.IterationEnd {
			errs = append(errs, *ev.Error)
		}
	})
	_, err := Decompose(context.Background(), x, cl, Options{Rank: 4, MaxIter: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) < 2 {
		t.Fatalf("captured %d errors", len(errs))
	}
	for i := 1; i < len(errs); i++ {
		if errs[i] > errs[i-1] {
			t.Fatalf("error increased: %v", errs)
		}
	}
}

func TestDecomposeDeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randomTensor(rng, 12, 12, 12, 0.1)
	opt := Options{Rank: 3, Seed: 42, MaxIter: 3}
	r1, err := Decompose(context.Background(), x, testCluster(4), opt)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Decompose(context.Background(), x, testCluster(7), opt) // different cluster size
	if err != nil {
		t.Fatal(err)
	}
	if r1.Error != r2.Error || !r1.A.Equal(r2.A) || !r1.B.Equal(r2.B) || !r1.C.Equal(r2.C) {
		t.Fatal("results differ across cluster sizes for the same seed")
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
func newTestDecomposition(t *testing.T, x *tensor.Tensor, opt Options, machines int) *decomposition {
	t.Helper()
	return newTestDecompositionOn(t, x, opt, testCluster(machines))
}

// newTestDecompositionOn is newTestDecomposition on the caller's cluster,
// whose remote executors, if it has any, are set up too.
func newTestDecompositionOn(t *testing.T, x *tensor.Tensor, opt Options, cl *cluster.Cluster) *decomposition {
	t.Helper()
	cfg, err := opt.withDefaults(cl.Machines())
	if err != nil {
		t.Fatal(err)
	}
	i, j, k := x.Dims()
	d := &decomposition{ctx: context.Background(), x: x, cl: cl, opt: opt,
		ex: newExecutor(cfg, [3]int{i, j, k}, cl.Machines(), cl.MachineFor, lookahead)}
	if err := cl.PushState(d.ctx, transport.StateSetup, func() ([]byte, error) { return encodeSetup(x, cfg), nil }); err != nil {
		t.Fatal(err)
	}
	if err := d.partitionAll(NewPartitions(x, cfg.Partitions)); err != nil {
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
				for _, blk := range d.ex.px[0].Parts[lost].Blocks {
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
	if err := d.partitionAll(NewPartitions(x, cfg.Partitions)); err != nil { // stage 0
		t.Fatal(err)
	}
	const stages = (rank + lookahead - 1) / lookahead
	updateMode(t, d, 0, a, b, c) // stages 1..stages, one per pair of columns
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

func TestNoCacheMatchesCached(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := randomTensor(rng, 10, 11, 12, 0.1)
	opt := Options{Rank: 4, Seed: 5, MaxIter: 3}
	cached, err := Decompose(context.Background(), x, testCluster(4), opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.NoCache = true
	uncached, err := Decompose(context.Background(), x, testCluster(4), opt)
	if err != nil {
		t.Fatal(err)
	}
	if cached.Error != uncached.Error || !cached.A.Equal(uncached.A) {
		t.Fatal("NoCache ablation changes results")
	}
}

func TestGroupBitsInvariance(t *testing.T) {
	// Lemma 2's table splitting is a space/time trade-off; it must not
	// change any decision.
	rng := rand.New(rand.NewSource(13))
	x := randomTensor(rng, 10, 10, 10, 0.1)
	var base *Result
	for _, v := range []int{2, 3, 7, 15} {
		res, err := Decompose(context.Background(), x, testCluster(4), Options{Rank: 6, Seed: 3, MaxIter: 2, GroupBits: v})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		if res.Error != base.Error || !res.A.Equal(base.A) {
			t.Fatalf("GroupBits=%d changes results", v)
		}
	}
}

func TestPartitionCountInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x := randomTensor(rng, 11, 13, 9, 0.12)
	var base *Result
	for _, n := range []int{1, 2, 5, 16} {
		res, err := Decompose(context.Background(), x, testCluster(4), Options{Rank: 4, Seed: 8, MaxIter: 2, Partitions: n})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = res
			continue
		}
		if res.Error != base.Error || !res.A.Equal(base.A) {
			t.Fatalf("Partitions=%d changes results", n)
		}
	}
}

func TestShuffleVolumeLemma6(t *testing.T) {
	// Shuffle volume must scale with |X| and be charged exactly once.
	rng := rand.New(rand.NewSource(15))
	sparse := randomTensor(rng, 12, 12, 12, 0.02)
	dense := randomTensor(rng, 12, 12, 12, 0.3)
	opt := Options{Rank: 2, MaxIter: 2, Seed: 1}
	rs, err := Decompose(context.Background(), sparse, testCluster(4), opt)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := Decompose(context.Background(), dense, testCluster(4), opt)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(rd.Stats.ShuffledBytes) / float64(rs.Stats.ShuffledBytes)
	nnzRatio := float64(dense.NNZ()) / float64(sparse.NNZ())
	if ratio < nnzRatio/2 || ratio > nnzRatio*2 {
		t.Fatalf("shuffle ratio %.2f vs nnz ratio %.2f", ratio, nnzRatio)
	}
}

func TestBroadcastVolumeLemma7(t *testing.T) {
	// Broadcast traffic scales with the machine count M.
	rng := rand.New(rand.NewSource(16))
	x := randomTensor(rng, 12, 12, 12, 0.1)
	opt := Options{Rank: 3, MaxIter: 2, Seed: 1, Partitions: 4}
	r4, err := Decompose(context.Background(), x, testCluster(4), opt)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Decompose(context.Background(), x, testCluster(8), opt)
	if err != nil {
		t.Fatal(err)
	}
	if r8.Stats.BroadcastBytes != 2*r4.Stats.BroadcastBytes {
		t.Fatalf("broadcast bytes %d (M=8) vs %d (M=4), want exact 2x",
			r8.Stats.BroadcastBytes, r4.Stats.BroadcastBytes)
	}
}

func TestCollectVolumeLemma7(t *testing.T) {
	// Collect traffic scales with the partition count N.
	rng := rand.New(rand.NewSource(17))
	x := randomTensor(rng, 12, 12, 12, 0.1)
	opt := Options{Rank: 3, MaxIter: 2, Seed: 1, Partitions: 2}
	r2, err := Decompose(context.Background(), x, testCluster(4), opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Partitions = 8
	r8, err := Decompose(context.Background(), x, testCluster(4), opt)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := 3*r2.Stats.CollectedBytes, 5*r2.Stats.CollectedBytes
	if r8.Stats.CollectedBytes < lo || r8.Stats.CollectedBytes > hi {
		t.Fatalf("collect bytes %d (N=8) vs %d (N=2), want ≈4x", r8.Stats.CollectedBytes, r2.Stats.CollectedBytes)
	}
}

func TestQuickDecomposeErrorMatchesReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		i, j, k := rng.Intn(8)+2, rng.Intn(8)+2, rng.Intn(8)+2
		x := randomTensor(rng, i, j, k, 0.2)
		r := rng.Intn(4) + 1
		res, err := Decompose(context.Background(), x, testCluster(rng.Intn(4)+1), Options{
			Rank: r, Seed: seed, MaxIter: 2, Partitions: rng.Intn(6) + 1,
		})
		if err != nil {
			return false
		}
		return res.Error == tensor.ReconstructError(x, res.A, res.B, res.C)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDecomposeNonCubicTensor(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	x := randomTensor(rng, 30, 5, 11, 0.08)
	res, err := Decompose(context.Background(), x, testCluster(4), Options{Rank: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.A.Rows() != 30 || res.B.Rows() != 5 || res.C.Rows() != 11 {
		t.Fatalf("factor shapes %d/%d/%d", res.A.Rows(), res.B.Rows(), res.C.Rows())
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

func TestDecomposeAllZeroTensor(t *testing.T) {
	x := tensor.New(8, 8, 8)
	res, err := Decompose(context.Background(), x, testCluster(2), Options{Rank: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Error != 0 {
		t.Fatalf("all-zero tensor: error %d, want 0 (empty factors)", res.Error)
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
