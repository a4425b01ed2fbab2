package core

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"dbtf/internal/cluster"
	"dbtf/internal/gen"
	"dbtf/internal/partition"
	"dbtf/internal/tensor"
	"dbtf/internal/trace"
	"dbtf/internal/transport/tcp"
)

// A factorization is a function of its tensor and its result-determining
// options: no backend, machine or partition count, cache setting, stage span,
// fault, eviction or cancelled context may move a bit of it. A scenario is
// one way of executing a run, and checkScenario holds it to one oracle, the
// plain sequential run: the same options on the simulator with one machine,
// one partition and one column a stage, cached at the default GroupBits,
// uninterrupted — Algorithm 4 as written.

// tensorKind is how a scenario's tensor is drawn.
type tensorKind int

const (
	kindUniform tensorKind = iota // every cell set with probability density: all-zero at 0, all-ones at 1
	kindPlanted                   // gen.FromFactors, then gen.AddNoise
	kindSingle                    // one nonzero
)

// tensorSpec is a scenario's tensor, drawn from its own seed.
type tensorSpec struct {
	dims    [3]int
	kind    tensorKind
	density float64    // kindUniform: of the cells; kindPlanted: of the factors
	rank    int        // kindPlanted: of the factors
	noise   [2]float64 // kindPlanted: additive and destructive
	seed    int64
}

func uniform(seed int64, i, j, k int, density float64) tensorSpec {
	return tensorSpec{dims: [3]int{i, j, k}, kind: kindUniform, density: density, seed: seed}
}

func planted(seed int64, i, j, k, rank int, density, additive, destructive float64) tensorSpec {
	return tensorSpec{dims: [3]int{i, j, k}, kind: kindPlanted, density: density, rank: rank,
		noise: [2]float64{additive, destructive}, seed: seed}
}

func (ts tensorSpec) tensor() *tensor.Tensor {
	rng := rand.New(rand.NewSource(ts.seed))
	i, j, k := ts.dims[0], ts.dims[1], ts.dims[2]
	switch {
	case ts.kind == kindUniform:
		return randomTensor(rng, i, j, k, ts.density)
	case i*j*k == 0:
		return tensor.New(i, j, k)
	case ts.kind == kindSingle:
		return tensor.MustFromCoords(i, j, k, []tensor.Coord{{I: rng.Intn(i), J: rng.Intn(j), K: rng.Intn(k)}})
	}
	x, _, _, _ := gen.FromFactors(rng, i, j, k, ts.rank, ts.density)
	// Additive noise sets zero cells only, so it is capped at their count.
	zeros := float64(i*j*k - x.NNZ())
	return gen.AddNoise(rng, x, min(ts.noise[0], zeros/float64(max(x.NNZ(), 1))), ts.noise[1])
}

// backend is what runs a scenario's stages.
type backend int

const (
	simulated    backend = iota
	hosts                // Workers called in-process, a task a call (hostTransport)
	batchedHosts         // the same, one batch per machine and stage
	loopbackTCP          // Workers behind tcp.Serve on loopback listeners
)

// scenario is one way of running one factorization: a tensor, the options,
// and the recipe that executes them.
type scenario struct {
	x tensorSpec
	// opt holds every option but CheckpointDir and Boundary, which the
	// recipe sets from the placement bits: a checkpoint directory whenever a
	// bit is set or the run is interrupted, and the poll unless the bits
	// ask for the default placement (polled).
	opt      Options
	machines int
	backend  backend
	span     int // columns an eval stage decides; 0 is lookahead
	faults   *cluster.FaultPlan
	evict    uint  // bit t: the Boundary poll yields the run after iteration t
	cancel   int64 // the context is cancelled as the cancel-th stage, counting every segment's, begins; 0 never
	// checkpoint has bit t when the poll, not yielding, answers
	// BoundaryCheckpoint after iteration t; every bit and no yield is the
	// default placement, a checkpoint at every boundary without a poll.
	checkpoint uint
	// carried asks some iteration after the first to change the error, so
	// that the checkpoints' recount meets an objective carried through
	// commits, not one copied from the last count.
	carried bool
	// shared, when set, runs the scenario as that many runs started together
	// on one Partitions set (checkShared), after a run whose build is
	// cancelled in its partition stage when cancelBuild is set.
	shared      int
	cancelBuild bool
}

// drawScenario makes every bounded random choice of a scenario from rng, as
// microsmith draws a program from one seeded builder: one int64 names it.
func drawScenario(rng *rand.Rand) scenario {
	sc := scenario{machines: 1 + rng.Intn(5)}
	ts := &sc.x
	ts.seed = rng.Int63()
	for m := range ts.dims {
		ts.dims[m] = 2 + rng.Intn(15)
	}
	switch rng.Intn(32) {
	case 0, 1:
		ts.dims[rng.Intn(3)] = 1
	case 2:
		ts.dims[rng.Intn(3)] = 0 // both runs must fail
	}
	switch n := rng.Intn(16); {
	case n < 6:
		ts.kind, ts.density = kindUniform, 0.02+0.38*rng.Float64()
	case n < 13:
		ts.kind, ts.density, ts.rank = kindPlanted, 0.25+0.35*rng.Float64(), 1+rng.Intn(6)
		ts.noise = [2]float64{0.2 * rng.Float64(), 0.2 * rng.Float64()}
	case n < 15:
		ts.kind, ts.density = kindUniform, float64(n-13) // all-zero or all-ones
	default:
		ts.kind = kindSingle
	}

	o := &sc.opt
	// Weighted toward the ranks at the edges of a stage's lanes and of the
	// row mask's halves and ends.
	o.Rank = [...]int{1, 2, 31 + rng.Intn(3), 63 + rng.Intn(2), 1 + 2*rng.Intn(32), 1 + rng.Intn(64)}[rng.Intn(6)]
	o.Seed, o.Init = rng.Int63(), InitScheme(rng.Intn(3))
	if o.Init != InitTopFiber {
		o.InitialSets = 1 + rng.Intn(3)
	}
	o.MaxIter = 1 + rng.Intn(4)
	o.MinIter = []int{1, o.MaxIter}[rng.Intn(2)]
	o.Tolerance = []int64{0, 1 << 40}[rng.Intn(2)]
	// V = 1 caches no summation of two or more columns: one draw in four
	// runs uncached.
	if o.GroupBits = 2 + rng.Intn(14); rng.Intn(4) == 0 {
		o.GroupBits = 1
	}
	o.Partitions = []int{0, 1, sc.machines, 100}[rng.Intn(4)]

	sc.backend = []backend{simulated, simulated, hosts, batchedHosts}[rng.Intn(4)]
	if rng.Intn(16) == 0 {
		sc.backend = loopbackTCP
	}
	sc.span = []int{1, 0, 0, 0}[rng.Intn(4)]
	if sc.backend == simulated && rng.Intn(4) == 0 {
		sc.faults = &cluster.FaultPlan{Seed: rng.Int63(), FailureRate: 0.2 * rng.Float64(), PanicRate: 0.05 * rng.Float64(),
			MachineLossRate: 0.1 * rng.Float64(), MachineRejoinAfter: rng.Intn(4)}
	}
	// One placement over every boundary, the last included.
	bits := func() uint { return uint(rng.Intn(1<<o.MaxIter)) << 1 }
	switch rng.Intn(4) {
	case 1:
		sc.checkpoint = every
	case 2, 3:
		sc.checkpoint = bits()
	}
	if rng.Intn(4) == 0 {
		sc.evict = bits()
	}
	if rng.Intn(4) == 0 {
		sc.cancel = 1 + rng.Int63n(runStages(max(o.InitialSets, 1), o.Rank, cmp.Or(sc.span, lookahead), o.MaxIter))
	}
	if sc.backend == simulated && sc.faults == nil && rng.Intn(8) == 0 {
		// Shared runs are neither polled nor interrupted: a checkpointing one
		// checkpoints at every boundary.
		sc.shared, sc.cancelBuild = 2+rng.Intn(3), rng.Intn(2) == 0
		sc.evict, sc.cancel = 0, 0
		if sc.checkpoint != 0 {
			sc.checkpoint = every
		}
	}
	return sc
}

// every sets the placement bit of every boundary.
const every = ^uint(0)

// polled reports whether the scenario's placement needs the Boundary poll:
// every placement does but the default, a checkpoint at every boundary and
// no yield.
func (sc scenario) polled() bool {
	return sc.evict != 0 || sc.checkpoint != 0 && sc.checkpoint != every
}

// runStages is the stage count of a fresh run of L initial sets, rank R and
// T iterations deciding span columns a stage: the partitioning, one
// total-error stage per initial set, and ⌈R/span⌉ eval stages per factor
// update of every sweep.
func runStages(sets, rank, span, iterations int) int64 {
	return int64(1 + sets + (sets+iterations-1)*3*((rank+span-1)/span))
}

// checkScenario runs the scenario and its oracle and holds one to the other:
// an error from both or from neither, and the same factors, trajectories,
// iteration count and convergence, bit for bit. On the way it checks every
// checkpoint written and every segment's trace; the result must recount to
// its error down a non-increasing trajectory, and an uninterrupted
// fault-free run must take its stage count, and a remote one the simulated
// run's traffic. A shared scenario is checkShared's.
func checkScenario(t *testing.T, sc scenario) {
	t.Helper()
	x, o, span := sc.x.tensor(), sc.opt, cmp.Or(sc.span, lookahead)
	if sc.shared > 0 {
		checkShared(t, sc, x, span)
		return
	}
	want, wantErr := decompose(context.Background(), x, nil, testCluster(1), oracleOptions(o), 1)
	got, segments, err := sc.run(t, x, span)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("the run returned %v, the oracle %v", err, wantErr)
	}
	if err != nil {
		return
	}
	errs := got.IterationErrors
	if !resultsEqual(got, want) {
		t.Fatalf("%d segments ended at errors %v %v in %d iterations (converged %v); the oracle %v %v in %d (%v)", segments,
			got.InitialErrors, errs, got.Iterations, got.Converged, want.InitialErrors, want.IterationErrors, want.Iterations, want.Converged)
	}
	i, j, k := x.Dims()
	switch {
	case got.A.Rows() != i || got.B.Rows() != j || got.C.Rows() != k || got.A.Rank() != o.Rank || got.B.Rank() != o.Rank || got.C.Rank() != o.Rank:
		t.Errorf("factors %dx%d, %dx%d, %dx%d of a %dx%dx%d tensor at rank %d",
			got.A.Rows(), got.A.Rank(), got.B.Rows(), got.B.Rank(), got.C.Rows(), got.C.Rank(), i, j, k, o.Rank)
	case len(errs) != got.Iterations || errs[len(errs)-1] != got.Error:
		t.Errorf("error %d after %d iterations, trajectory %v", got.Error, got.Iterations, errs)
	case got.Error != tensor.ReconstructError(x, got.A, got.B, got.C):
		t.Errorf("error %d, the factors recount to %d", got.Error, tensor.ReconstructError(x, got.A, got.B, got.C))
	case x.NNZ() == 0 && got.Error != 0:
		t.Errorf("an all-zero tensor ended at error %d", got.Error)
	}
	for n := 1; n < len(errs); n++ {
		if errs[n] > errs[n-1] {
			t.Errorf("the error increased: %v", errs)
		}
	}
	if sc.carried && errs[0] == errs[len(errs)-1] {
		t.Errorf("no iteration after the first moved the error %v: the carried objective went untested", errs)
	}
	if segments > 1 || sc.faults != nil {
		return
	}
	if stages := runStages(len(got.InitialErrors), o.Rank, span, got.Iterations); got.Stats.Stages != stages {
		t.Errorf("%d stages, want %d", got.Stats.Stages, stages)
	}
	if sc.backend != simulated {
		sim, err := decompose(context.Background(), x, nil, testCluster(sc.machines), o, span)
		if err != nil {
			t.Fatal(err)
		}
		g, s := got.Stats, sim.Stats
		if g.Stages != s.Stages || g.Tasks != s.Tasks || g.ShuffledBytes != s.ShuffledBytes || g.BroadcastBytes != s.BroadcastBytes || g.CollectedBytes != s.CollectedBytes {
			t.Errorf("counted %+v, the simulated run %+v", g, s)
		}
	}
}

// oracleOptions is the plain sequential run of o: its result-determining
// options on one partition.
func oracleOptions(o Options) Options {
	return Options{Rank: o.Rank, Seed: o.Seed, Init: o.Init, InitialSets: o.InitialSets,
		MaxIter: o.MaxIter, MinIter: o.MinIter, Tolerance: o.Tolerance, Partitions: 1}
}

// checkShared runs the shared recipe on the simulator. A build cancelled as
// its partition stage begins fails its run with context.Canceled and leaves
// the set empty. Then sc.shared runs start together on the set, the builder
// holding its partition stage open until another run waits on the build, and
// one more runs on the built set; run i has seed Seed+i. Each equals its own
// oracle and passes checkTrace; exactly one builds — one partition stage,
// three shuffles, runStages stages — and every other reads
// the set with no shuffled byte in one stage fewer. A run for another
// partition count is refused. A checkpointing scenario's runs resume from
// one checkpoint directory, each starting fresh in its own lineage and
// checkpointing at every boundary, which ends holding one file per run
// (checkCompleted).
func checkShared(t *testing.T, sc scenario, x *tensor.Tensor, span int) {
	t.Helper()
	if sc.checkpoint != 0 {
		sc.opt.CheckpointDir, sc.opt.Resume = t.TempDir(), true
	}
	n := sc.machines
	if cfg, err := sc.opt.withDefaults(sc.machines); err == nil {
		n = cfg.Partitions
	}
	set := NewPartitions(x, n, sc.machines)
	type setRun struct {
		res                  *Result
		err                  error
		events               []*trace.Event
		partitions, shuffles int
	}
	// run i runs on the set on its own traced cluster; atPartition is called
	// as the partition stage begins, on the building run's goroutine.
	run := func(ctx context.Context, i int, atPartition func()) (r setRun) {
		cl := tracedCluster(sc.machines, func(ev *trace.Event) {
			r.events = append(r.events, ev)
			switch {
			case ev.Type == trace.StageBegin && ev.Name == "partition":
				r.partitions++
				atPartition()
			case ev.Type == trace.Shuffle:
				r.shuffles++
			}
		})
		o := sc.opt
		o.Seed += int64(i)
		r.res, r.err = decompose(ctx, x, set, cl, o, span)
		return r
	}
	_, wantErr := decompose(context.Background(), x, nil, testCluster(1), oracleOptions(sc.opt), 1)
	if sc.cancelBuild {
		ctx, cancel := context.WithCancel(context.Background())
		r := run(ctx, 0, cancel)
		cancel()
		set.mu.Lock()
		px, building := set.px, set.building
		set.mu.Unlock()
		if wantErr == nil && (!errors.Is(r.err, context.Canceled) || r.partitions != 1) || px != ([3]*partition.Partitioned{}) || building {
			t.Fatalf("a build cancelled in its partition stage: %d partition stages, error %v; the set kept %v, building %v", r.partitions, r.err, px, building)
		}
	}
	waiting := func() bool { set.mu.Lock(); defer set.mu.Unlock(); return set.done != nil }
	got := make([]setRun, sc.shared+1)
	var wg sync.WaitGroup
	for i := 0; i < sc.shared; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = run(context.Background(), i, func() {
				for !waiting() {
					runtime.Gosched()
				}
			})
		}(i)
	}
	wg.Wait()
	got[sc.shared] = run(context.Background(), sc.shared, func() {})
	builders := 0
	for i, r := range got {
		o := oracleOptions(sc.opt)
		o.Seed += int64(i)
		want, err := decompose(context.Background(), x, nil, testCluster(1), o, 1)
		if (r.err != nil) != (err != nil) {
			t.Fatalf("run %d returned %v, its oracle %v", i, r.err, err)
		}
		if err != nil {
			continue
		}
		if !resultsEqual(r.res, want) {
			t.Errorf("run %d ended at errors %v in %d iterations; its oracle %v in %d", i, r.res.IterationErrors, r.res.Iterations, want.IterationErrors, want.Iterations)
		}
		checkTrace(t, r.events, r.res)
		if sc.opt.CheckpointDir != "" {
			o := sc.opt
			o.Seed += int64(i)
			checkCompleted(t, x, o, sc.machines, span, r.res)
		}
		st, stages := r.res.Stats, runStages(len(r.res.InitialErrors), sc.opt.Rank, span, r.res.Iterations)
		switch {
		case r.shuffles > 0:
			builders++
			if r.partitions != 1 || r.shuffles != 3 || st.Stages != stages {
				t.Errorf("run %d built the set with %d partition stages and %d shuffles in %d stages; want 1, 3 in %d",
					i, r.partitions, r.shuffles, st.Stages, stages)
			}
		case r.partitions != 0 || st.ShuffledBytes != 0 || st.Stages != stages-1:
			t.Errorf("run %d read the set after %d partition stages, shuffling %d B in %d stages; want none in %d",
				i, r.partitions, st.ShuffledBytes, st.Stages, stages-1)
		}
	}
	if wantErr == nil && builders != 1 {
		t.Errorf("%d runs built the shared set, want 1", builders)
	}
	if files, _ := os.ReadDir(sc.opt.CheckpointDir); wantErr == nil && sc.opt.CheckpointDir != "" && len(files) != len(got) {
		t.Errorf("%d runs left %d files in their checkpoint directory", len(got), len(files))
	}
	if _, err := DecomposeOn(context.Background(), set, testCluster(sc.machines), Options{Rank: sc.opt.Rank, Partitions: n + 1}); err == nil {
		t.Errorf("a run for %d partitions ran on a set of %d", n+1, n)
	}
}

// run executes the scenario's recipe: a first segment and, after each
// interruption, one resumed from the checkpoint directory, until one
// completes or fails. Every segment is traced and its trace checked.
func (sc scenario) run(t *testing.T, x *tensor.Tensor, span int) (res *Result, segments int, err error) {
	opt, checkpoint := sc.opt, ""
	if sc.evict|sc.checkpoint != 0 || sc.cancel > 0 {
		opt.CheckpointDir = t.TempDir()
		checkpoint = filepath.Join(opt.CheckpointDir, CheckpointFileName(runFingerprint(t, x, opt, sc.machines)))
	}
	stages, evicted, fired, answered := int64(0), false, uint(0), 0
	if sc.polled() {
		opt.Boundary = func(iteration int, _ bool) Boundary {
			bit := uint(1) << iteration
			switch evicted = sc.evict&bit != 0; {
			case evicted:
				fired |= bit
				answered++
				return BoundaryYield
			case sc.checkpoint&bit != 0:
				answered++
				return BoundaryCheckpoint
			}
			return BoundaryContinue
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// At most MaxIter+2 segments: an eviction at every boundary, the last
	// included, one cancel and the one that completes. Options that resolve
	// refuses fail the first segment.
	cfg, _ := opt.resolve()
	for segments = 1; segments <= cfg.MaxIter+2; segments++ {
		var events []*trace.Event
		late, written := 0, 0 // stages begun on a cancelled context, checkpoints written
		tr := trace.New(sinkFunc(func(ev *trace.Event) {
			events = append(events, ev)
			switch ev.Type {
			case trace.StageBegin:
				if ctx.Err() != nil {
					late++
				}
				if stages++; stages == sc.cancel {
					cancel()
				}
			case trace.Checkpoint:
				written++
				checkCheckpoint(t, x, checkpoint)
			}
		}))
		cl, closeTransport := sc.cluster(t, tr, span)
		evicted, answered = false, 0
		res, err = decompose(ctx, x, nil, cl, opt, span)
		if err := closeTransport(); err != nil {
			t.Errorf("closing the transport: %v", err)
		}
		checkTrace(t, events, res)
		interrupted := evicted && errors.Is(err, ErrPreempted) || ctx.Err() != nil && errors.Is(err, context.Canceled)
		switch {
		case evicted && !interrupted:
			t.Fatalf("segment %d: the poll yielded the run, which returned %v", segments, err)
		case opt.Boundary != nil && (written > answered || written < answered && ctx.Err() == nil):
			// Under the poll a checkpoint is written exactly where it asks
			// for one; only a cancelled write may be missing.
			t.Fatalf("segment %d: %d checkpoints written, the poll asked for %d", segments, written, answered)
		case err == nil && late > 0:
			t.Fatalf("segment %d: %d stages began after the context was cancelled, and the run completed", segments, late)
		case err == nil && fired != sc.evict&(2<<res.Iterations-1)&^1:
			// Every boundary is polled, the last included, once it is reached.
			t.Fatalf("evicted after iterations %b of %d, want %b", fired, res.Iterations, sc.evict&(2<<res.Iterations-1)&^1)
		case !interrupted:
			// A run that wrote its last boundary's checkpoint and was not
			// yielded there is held to it; one yielded there was resumed
			// from it.
			if err == nil && checkpoint != "" {
				if last := uint(1) << res.Iterations; opt.Boundary == nil || sc.checkpoint&last != 0 && sc.evict&last == 0 {
					checkCompleted(t, x, opt, sc.machines, span, res)
				}
			}
			return res, segments, err
		}
		ctx, opt.Resume = context.Background(), true
	}
	t.Fatalf("no run completed in %d segments", segments-1)
	return nil, 0, nil
}

// cluster returns a fresh cluster on the scenario's backend, and what
// closes its transport once the segment is done.
func (sc scenario) cluster(t *testing.T, tr *trace.Tracer, span int) (*cluster.Cluster, func() error) {
	cc := cluster.Config{Machines: sc.machines, Faults: sc.faults, Tracer: tr}
	switch sc.backend {
	case hosts, batchedHosts:
		ht := newHostTransport(sc.machines)
		ht.batch = sc.backend == batchedHosts
		for _, h := range ht.hosts {
			h.(*Worker).ex.span = span
		}
		cc.Transport = ht
	case loopbackTCP:
		co, err := tcp.DialContext(context.Background(), tcp.Config{Addrs: loopbackWorkers(t, sc.machines, span)})
		if err != nil {
			t.Fatal(err)
		}
		cc.Transport = co
	default:
		return cluster.New(cc), func() error { return nil }
	}
	return cluster.New(cc), cc.Transport.Close
}

// loopbackWorkers serves machines Workers deciding span columns a stage on
// loopback listeners, until the test ends, and returns their addresses.
func loopbackWorkers(t *testing.T, machines, span int) []string {
	addrs := make([]string, machines)
	for m := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		w, served := NewWorker(), make(chan error, 1)
		w.ex.span = span
		go func() { served <- tcp.Serve(l, w, nil) }()
		t.Cleanup(func() {
			_ = l.Close() // Serve returns on it
			if err := <-served; err != nil {
				t.Errorf("Serve: %v", err)
			}
		})
		addrs[m] = l.Addr().String()
	}
	return addrs
}

// checkTrace holds a segment's events to trace.Validate and, when the segment
// completed, its run span to its result: one run, an iteration span for every
// iteration it ran, and a RunEnd delta equal to its Stats.
func checkTrace(t *testing.T, events []*trace.Event, res *Result) {
	t.Helper()
	sum, err := trace.Validate(events)
	if err != nil {
		t.Errorf("invalid trace: %v", err)
		return
	}
	if res == nil {
		return
	}
	from, iterations := 0, 0
	var delta *trace.StatsDelta
	for _, ev := range events {
		switch ev.Type {
		case trace.RunBegin:
			from = ev.Iteration
		case trace.IterationBegin:
			iterations++
		case trace.RunEnd:
			delta = ev.Delta
		}
	}
	if sum.Runs != 1 || iterations != res.Iterations-from || delta == nil || *delta != res.Stats {
		t.Errorf("the trace holds %d runs and %d iteration spans from iteration %d, and a run delta %+v; want 1, %d and the Stats %+v",
			sum.Runs, iterations, from, delta, res.Iterations-from, res.Stats)
	}
}

// checkCompleted holds a run that completed under o, with its checkpoint
// directory and a checkpoint at its last boundary, to the checkpoint it
// left: its last iteration is durable and counted, and a resume returns its
// result without another iteration.
func checkCompleted(t *testing.T, x *tensor.Tensor, o Options, machines, span int, res *Result) {
	t.Helper()
	ck, err := readCheckpoint(o.CheckpointDir, runFingerprint(t, x, o, machines))
	if err != nil || ck == nil || ck.Iteration != res.Iterations || res.Stats.CheckpointBytes <= 0 {
		t.Fatalf("a run of %d iterations, %d checkpoint bytes, left the checkpoint %+v (%v)", res.Iterations, res.Stats.CheckpointBytes, ck, err)
	}
	o.Resume = true
	again, err := decompose(context.Background(), x, nil, testCluster(machines), o, span)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(again, res) || again.Stats.Stages != 1 {
		t.Fatalf("resuming a completed run ended at errors %v in %d stages; the run at %v", again.IterationErrors, again.Stats.Stages, res.IterationErrors)
	}
}

// checkCheckpoint reads the checkpoint just written: its image is the
// encoding of what it decodes to, and its error — the objective carried
// through every commit since iteration 1 — recounts from its factors.
func checkCheckpoint(t *testing.T, x *tensor.Tensor, path string) {
	data, err := os.ReadFile(path)
	var ck *checkpoint
	if err == nil {
		ck, err = decodeCheckpoint(data)
	}
	switch {
	case err != nil:
		t.Errorf("checkpoint: %v", err)
	case !bytes.Equal(ck.encode(), data):
		t.Errorf("the checkpoint of iteration %d re-encodes to other bytes", ck.Iteration)
	case ck.PrevErr != tensor.ReconstructError(x, ck.A, ck.B, ck.C):
		t.Errorf("the checkpoint of iteration %d holds error %d, its factors recount to %d",
			ck.Iteration, ck.PrevErr, tensor.ReconstructError(x, ck.A, ck.B, ck.C))
	}
}

// FuzzScenario checks the scenario a seed draws. Plain go test runs the seeds
// added here; go test -fuzz='^FuzzScenario$' draws more.
func FuzzScenario(f *testing.F) {
	for seed := int64(1); seed <= 100; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkScenario(t, drawScenario(rand.New(rand.NewSource(seed))))
	})
}

// TestScenarioPinned checks the cases of the hand-written differentials the
// generator replaced, each a row named after the test it came from. A row
// named NoCache keeps the name it was pinned under and runs V = 1, which
// caches no summation of two or more columns.
func TestScenarioPinned(t *testing.T) {
	type row struct {
		name string
		sc   scenario
	}
	diff := func(seed int64) tensorSpec { return planted(seed, 20, 16, 18, 3, 0.3, 0.1, 0.1) }
	carried := planted(27, 10, 9, 8, 5, 0.35, 0.15, 0.15)
	loss := &cluster.FaultPlan{Seed: 27, FailureRate: 0.05, MachineLossRate: 0.15, MachineRejoinAfter: 2}
	rows := []row{
		{"8 iterations (was TestDecomposeErrorMonotoneAcrossIterations)", scenario{x: uniform(4, 16, 16, 16, 0.05), opt: Options{Rank: 4, MaxIter: 8, Seed: 1}, machines: 4}},
		{"M=4 (was TestDecomposeDeterministicForSeed)", scenario{x: uniform(5, 12, 12, 12, 0.1), opt: Options{Rank: 3, Seed: 42, MaxIter: 3}, machines: 4}},
		{"M=7 (was TestDecomposeDeterministicForSeed)", scenario{x: uniform(5, 12, 12, 12, 0.1), opt: Options{Rank: 3, Seed: 42, MaxIter: 3}, machines: 7}},
		{"NoCache (was TestNoCacheMatchesCached)", scenario{x: uniform(10, 10, 11, 12, 0.1), opt: Options{Rank: 4, Seed: 5, MaxIter: 3, GroupBits: 1}, machines: 4}},
		{"random shape, N=6 (was TestQuickDecomposeErrorMatchesReconstruction)", scenario{x: uniform(3, 5, 9, 3, 0.2), opt: Options{Rank: 3, Seed: 3, MaxIter: 2, Partitions: 6}, machines: 3}},
		{"30x5x11 (was TestDecomposeNonCubicTensor)", scenario{x: uniform(18, 30, 5, 11, 0.08), opt: Options{Rank: 3, Seed: 2}, machines: 4}},
		{"all zero (was TestDecomposeAllZeroTensor)", scenario{x: uniform(0, 8, 8, 8, 0), opt: Options{Rank: 2, Seed: 1}, machines: 2}},
		{"hosts, 2 sets (was TestRemoteHostsMatchSimulated)", scenario{x: uniform(77, 9, 14, 6, 0.12), opt: Options{Rank: 4, Seed: 1, MaxIter: 3, Partitions: 3, InitialSets: 2}, machines: 3, backend: hosts}},
		{"hosts, 2 sets, NoCache (was TestRemoteHostsMatchSimulated)", scenario{x: uniform(78, 13, 5, 11, 0.12), opt: Options{Rank: 5, Seed: 2, MaxIter: 3, Partitions: 1, InitialSets: 2, GroupBits: 1}, machines: 2, backend: hosts}},
		{"batched hosts, 2 sets (was TestRemoteBatchedWorkersMatchSimulated)", scenario{x: uniform(79, 12, 8, 15, 0.12), opt: Options{Rank: 3, Seed: 1, MaxIter: 3, Partitions: 2, InitialSets: 2}, machines: 2, backend: batchedHosts}},
		{"batched hosts, 2 sets, NoCache (was TestRemoteBatchedWorkersMatchSimulated)", scenario{x: uniform(80, 7, 10, 9, 0.12), opt: Options{Rank: 2, Seed: 3, MaxIter: 3, Partitions: 4, InitialSets: 2, GroupBits: 1}, machines: 3, backend: batchedHosts}},
		{"chaos (was TestDecomposeTraceReplaysChaosRun)", scenario{x: uniform(5, 10, 9, 8, 0.2), opt: Options{Rank: 3, Seed: 5, MaxIter: 3}, machines: 4,
			faults: &cluster.FaultPlan{Seed: 11, FailureRate: 0.1, MachineLossRate: 0.04, MachineRejoinAfter: 2}}},
		{"failures and panics (was TestChaosIdenticalOutput)", scenario{x: planted(1, 24, 24, 24, 4, 0.25, 0.1, 0.1), opt: Options{Rank: 6, Seed: 1, MaxIter: 4, MinIter: 4}, machines: 4,
			faults: &cluster.FaultPlan{Seed: 42, FailureRate: 0.2, PanicRate: 0.05}}},
		{"every iteration evicted (was TestPreemptEveryIterationCompletesViaResume)", scenario{x: planted(47, 12, 10, 9, 2, 0.3, 0, 0), opt: Options{Rank: 2, Seed: 9, MaxIter: 4, MinIter: 4}, machines: 3, evict: every}},
		{"simulator, 3 sets, N=100 (was TestCarriedObjectiveEqualsRecount)", scenario{x: carried, opt: Options{Rank: 4, Seed: 4, MaxIter: 4, MinIter: 4, InitialSets: 3, Partitions: 100}, machines: 3, checkpoint: every, carried: true}},
		{"hosts, rank 5, evicted every iteration (was TestCarriedObjectiveEqualsRecount)", scenario{x: carried, opt: Options{Rank: 5, Seed: 5, MaxIter: 4, MinIter: 4}, machines: 3, backend: hosts, evict: every, carried: true}},
		{"batched hosts, rank 33, N=1, NoCache (was TestCarriedObjectiveEqualsRecount)", scenario{x: carried, opt: Options{Rank: 33, Seed: 33, MaxIter: 4, MinIter: 4, Partitions: 1, GroupBits: 1}, machines: 3, backend: batchedHosts, checkpoint: every, carried: true}},
		{"machine loss, 3 sets, evicted every iteration (was TestCarriedObjectiveEqualsRecount)", scenario{x: carried, opt: Options{Rank: 4, Seed: 4, MaxIter: 4, MinIter: 4, InitialSets: 3}, machines: 3, faults: loss, evict: every, carried: true}},
		{"traced (was TestDecomposeUntracedUnchanged)", scenario{x: uniform(9, 10, 9, 8, 0.2), opt: Options{Rank: 3, Seed: 9, MaxIter: 3}, machines: 4}},
		{"killed before its first checkpoint (was TestResumeMissingCheckpointStartsFresh)", scenario{x: planted(9, 10, 10, 10, 2, 0.3, 0, 0), opt: Options{Rank: 2, Seed: 5, MaxIter: 3, MinIter: 3}, machines: 2, cancel: 1}},
		{"6 iterations (was TestPropErrorMatchesReconstruction)", scenario{x: uniform(6, 13, 7, 16, 0.2), opt: Options{Rank: 3, Seed: 6, MaxIter: 6}, machines: 2}},
		{"shared set, 3 runs, 2 sets, N=5, span 1", scenario{x: planted(81, 11, 9, 13, 3, 0.3, 0.1, 0.1), opt: Options{Rank: 5, Seed: 3, MaxIter: 3, InitialSets: 2, Partitions: 5}, machines: 3, span: 1, shared: 3}},
		{"period 2 (was TestCheckpointEveryKWritesFinal)", scenario{x: planted(5, 12, 11, 10, 4, 0.3, 0.1, 0.1), opt: Options{Rank: 4, MaxIter: 3, MinIter: 3, Seed: 3}, machines: 2, checkpoint: 1<<2 | 1<<3}},
		{"shared set, cancelled build, topfiber, NoCache", scenario{x: planted(82, 10, 12, 9, 4, 0.3, 0.1, 0.1), opt: Options{Rank: 4, Seed: 4, MaxIter: 3, Init: InitTopFiber, GroupBits: 1}, machines: 2, shared: 2, cancelBuild: true}},
	}
	for _, v := range []int{2, 3, 7, 15} {
		rows = append(rows, row{fmt.Sprintf("V=%d (was TestGroupBitsInvariance)", v),
			scenario{x: uniform(13, 10, 10, 10, 0.1), opt: Options{Rank: 6, Seed: 3, MaxIter: 2, GroupBits: v}, machines: 4}})
	}
	for _, n := range []int{1, 2, 5, 16} {
		rows = append(rows, row{fmt.Sprintf("N=%d (was TestPartitionCountInvariance)", n),
			scenario{x: uniform(14, 11, 13, 9, 0.12), opt: Options{Rank: 4, Seed: 8, MaxIter: 2, Partitions: n}, machines: 4}})
	}
	for seed := int64(1); seed <= 4; seed++ {
		rows = append(rows, row{fmt.Sprintf("seed %d, NoCache (was TestDiffCacheAblationIdentical)", seed),
			scenario{x: diff(seed), opt: Options{Rank: 4, Seed: seed, MaxIter: 5, GroupBits: 1}, machines: 2}})
	}
	for _, n := range []int{1, 2, 5} {
		rows = append(rows, row{fmt.Sprintf("N=%d (was TestDiffPartitionCountInvariant)", n),
			scenario{x: diff(1), opt: Options{Rank: 4, Seed: 1, MaxIter: 5, Partitions: n}, machines: 2}})
	}
	for _, rank := range []int{1, 2, 5, 8, 16, 31, 33, 48, 64} {
		for _, v := range []int{2, 15} {
			for _, uncached := range []bool{false, true} {
				seed := int64(rank*100 + v)
				opt := Options{Rank: rank, Seed: seed, MaxIter: 2, MinIter: 2, GroupBits: v}
				if uncached {
					opt.GroupBits = 1
				}
				rows = append(rows, row{fmt.Sprintf("rank %d, V=%d, NoCache=%v (was TestDiffDeltaKernelRanksAndGroupBits)", rank, v, uncached),
					scenario{x: planted(seed, 13, 11, 12, 3, 0.3, 0.1, 0.1), opt: opt, machines: 2}})
			}
		}
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) { checkScenario(t, r.sc) })
	}
}

// Interrupted scenarios under their own names: a context cancelled as the first
// stage after checkpoint k begins, or the poll yielding after iteration k; each
// resumes.
func TestKillAtCheckpointThenResumeBitIdentical(t *testing.T) {
	sc := scenario{x: planted(7, 14, 12, 10, 3, 0.3, 0, 0), opt: Options{Rank: 3, Seed: 21, MaxIter: 6, MinIter: 6, InitialSets: 2}, machines: 4, checkpoint: every}
	for _, k := range []int{1, 2, 4} {
		sc.cancel = runStages(2, 3, lookahead, k) + 1
		t.Run(fmt.Sprintf("kill after iteration %d", k), func(t *testing.T) { checkScenario(t, sc) })
	}
}

func TestKillThenResumeTopFiberBitIdentical(t *testing.T) {
	sc := scenario{x: planted(43, 14, 12, 10, 3, 0.3, 0, 0), opt: Options{Rank: 3, MaxIter: 5, MinIter: 5, Init: InitTopFiber}, machines: 4, checkpoint: every}
	for _, k := range []int{1, 3} {
		sc.cancel = runStages(1, 3, lookahead, k) + 1
		t.Run(fmt.Sprintf("kill after iteration %d", k), func(t *testing.T) { checkScenario(t, sc) })
	}
}

func TestPreemptEvictsAndResumesBitIdentical(t *testing.T) {
	sc := scenario{x: planted(31, 14, 12, 10, 3, 0.3, 0, 0), opt: Options{Rank: 3, Seed: 77, MaxIter: 5, MinIter: 5, InitialSets: 2}, machines: 4, checkpoint: 1 << 2}
	for k := 1; k <= 4; k++ {
		sc.evict = 1 << k // before, at and after the checkpoint the poll asks for after iteration 2
		t.Run(fmt.Sprintf("after-iteration-%d", k), func(t *testing.T) { checkScenario(t, sc) })
	}
}

// Shared-set scenarios under their own names: runs started together on one
// set share one build, and a build cancelled in its partition stage is not
// kept, so the next run builds.
func TestSharedSetConcurrentRunsBuildOnce(t *testing.T) {
	checkScenario(t, scenario{x: planted(29, 14, 12, 10, 4, 0.3, 0, 0), opt: Options{Rank: 4, MaxIter: 4, MinIter: 4}, machines: 3, shared: 4})
}

func TestSharedSetCancelledBuildNotKept(t *testing.T) {
	checkScenario(t, scenario{x: planted(30, 12, 10, 8, 3, 0.3, 0, 0), opt: Options{Rank: 3, MaxIter: 3, MinIter: 3, Seed: 5}, machines: 3, shared: 2, cancelBuild: true})
}

// Checkpoint scenarios under their own names: resuming a completed run
// returns its result (checkCompleted), and runs that checkpoint together
// into one directory, or resume from it under another seed, each keep to
// their own file.
func TestResumeCompletedRunReturnsStoredResult(t *testing.T) {
	checkScenario(t, scenario{x: planted(13, 12, 10, 8, 2, 0.3, 0, 0), opt: Options{Rank: 2, MaxIter: 4, MinIter: 4, Seed: 3}, machines: 2, checkpoint: every})
}

func TestConcurrentCheckpointJobsSharedDir(t *testing.T) {
	checkScenario(t, scenario{x: planted(23, 14, 12, 10, 3, 0.3, 0, 0), opt: Options{Rank: 3, MaxIter: 4, MinIter: 4, Seed: 101}, machines: 4, checkpoint: every, shared: 2})
}

func TestResumeChangedConfigStartsFreshNamespace(t *testing.T) {
	checkScenario(t, scenario{x: planted(11, 10, 10, 10, 2, 0.3, 0, 0), opt: Options{Rank: 2, MaxIter: 3, MinIter: 3, Seed: 5}, machines: 2, checkpoint: every, shared: 2})
}
