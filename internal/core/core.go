// Package core implements DBTF, the distributed Boolean CP decomposition
// algorithm of the paper (Algorithms 2–5).
//
// Given a binary tensor X ∈ B^{I×J×K} and a rank R, Decompose finds binary
// factor matrices A, B, C minimizing |X ⊕ ⋁_r a_:r ∘ b_:r ∘ c_:r| with the
// alternating framework of Algorithm 1, executing each factor update as a
// set of partition-parallel stages on a cluster:
//
//   - the three unfolded tensors are vertically partitioned once and never
//     reshuffled (Section III-B, Algorithm 3);
//   - each partition generates the slice of the Khatri–Rao product it
//     needs from broadcast factor matrices and serves Boolean row
//     summations from cache tables built per update (Section III-C,
//     Algorithm 5);
//   - factor matrices are updated column by column: partitions evaluate,
//     for every row, the reconstruction error with the current column entry
//     set to 0 and to 1, the driver collects the errors and commits the
//     winning values (Section III-A, Algorithm 4).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime/pprof"
	"strconv"
	"time"

	"dbtf/internal/boolmat"
	"dbtf/internal/cluster"
	"dbtf/internal/slab"
	"dbtf/internal/sumcache"
	"dbtf/internal/tensor"
	"dbtf/internal/topfiber"
	"dbtf/internal/trace"
	"dbtf/internal/transport"
)

// InitScheme selects how the initial factor matrices are drawn.
type InitScheme int

const (
	// InitFiberSample seeds every component r from the fiber cross of a
	// uniformly sampled nonzero (i₀,j₀,k₀): a_:r, b_:r and c_:r become the
	// indicator vectors of the mode-1, mode-2 and mode-3 fibers through
	// that nonzero. This is the default: it keeps components anchored to
	// the data, which the greedy column update requires (see InitRandom).
	InitFiberSample InitScheme = iota
	// InitRandom draws every factor entry independently, as Algorithm 2
	// states literally, at the density (density(X)/R)^(1/3) clamped to
	// [0.01, 0.5] — the expected density of the initial reconstruction then
	// matches the tensor's. On sparse tensors this collapses to the
	// all-zero factorization: a column entry is set only when the region
	// newly covered by its component is majority-ones, which holds for a
	// random component only at tensor density > 0.5.
	// Kept for the initialization ablation.
	InitRandom
	// InitTopFiber seeds the components greedily from the top fibers of
	// the tensor (topFiberM): component r grows from the mode-1 fiber
	// covering the most nonzeros outside components 0..r-1. Deterministic
	// in the tensor and rank alone — it consumes no randomness, so the
	// Seed is irrelevant and InitialSets > 1 is rejected (every set would
	// be identical). See the topfiber package.
	InitTopFiber
)

// String returns the flag spelling of the scheme ("fiber", "random",
// "topfiber"), or a numeric form for unknown values.
func (s InitScheme) String() string {
	switch s {
	case InitFiberSample:
		return "fiber"
	case InitRandom:
		return "random"
	case InitTopFiber:
		return "topfiber"
	default:
		return fmt.Sprintf("InitScheme(%d)", int(s))
	}
}

// ParseInitScheme parses the flag spelling of an initialization scheme.
// The empty string selects the default (InitFiberSample).
func ParseInitScheme(s string) (InitScheme, error) {
	switch s {
	case "", "fiber":
		return InitFiberSample, nil
	case "random":
		return InitRandom, nil
	case "topfiber":
		return InitTopFiber, nil
	default:
		return 0, fmt.Errorf("core: unknown init scheme %q (want fiber, random or topfiber)", s)
	}
}

// Options configures a decomposition. The zero value of every field selects
// the default documented on the field.
type Options struct {
	// Rank is the number of components R. Required; 1 ≤ R ≤ 64.
	Rank int
	// MaxIter is the maximum number of iterations T. Default 10 (the
	// paper's default).
	MaxIter int
	// MinIter disables the convergence check before this many iterations.
	// Default 1; the runtime experiments set MinIter = MaxIter so every
	// method performs the same number of full update sweeps.
	MinIter int
	// InitialSets is the number of random initial factor sets L evaluated
	// in the first iteration, of which the best is kept (Algorithm 2,
	// lines 5-8). The zero value is the named sentinel InitialSetsAuto,
	// which selects the paper's default of 1; requesting L = 0 sets
	// outright is impossible and anything negative errors. InitTopFiber
	// rejects L > 1: the scheme is deterministic, so every set would be
	// identical and L−1 first-iteration sweeps would be wasted.
	InitialSets int
	// Partitions is the number of vertical partitions N per unfolded
	// tensor. Default: the cluster's machine count.
	Partitions int
	// GroupBits is the cache-splitting threshold V (Lemma 2). Default 15
	// (the paper's default); 1 caches no summation of two or more columns,
	// the uncached ablation of Section III-C.
	GroupBits int
	// Tolerance stops the iteration when the reconstruction error improves
	// by at most this much between consecutive iterations. Default 0: stop
	// when the error stops strictly decreasing.
	Tolerance int64
	// Init selects the initialization scheme. Default InitFiberSample.
	Init InitScheme
	// Seed seeds the deterministic random initialization.
	Seed int64
	// CheckpointDir, when non-empty, enables iteration-level durable
	// checkpointing: a versioned snapshot of the factor matrices and
	// iteration state is written atomically to
	// CheckpointDir/CheckpointFileName(fingerprint), so a killed run can be
	// resumed bit-identically with Resume. Boundary places every snapshot;
	// without it one is written at every iteration boundary.
	CheckpointDir string
	// Resume, when true, loads the checkpoint in CheckpointDir and
	// continues from it instead of initializing; the checkpoint's config
	// fingerprint must match this run's. A missing checkpoint file starts
	// a fresh run. Requires CheckpointDir.
	Resume bool
	// Boundary, when non-nil, is polled once at every iteration boundary,
	// the last included, with the iteration just completed and whether the
	// run converged or reached MaxIter there; its answer places the
	// boundary's checkpoint. On BoundaryCheckpoint the boundary's state is
	// written as a durable checkpoint and the run goes on; on BoundaryYield
	// it is written and Decompose returns an error wrapping ErrPreempted; on
	// BoundaryContinue nothing is written. An answer means the same at the
	// last boundary: a run yielded there and resumed returns its result
	// without another stage. A yielded run resumed with Resume continues
	// bit-identically to one that was never interrupted, as does one
	// resumed from any earlier checkpoint or from none — this is the
	// eviction/timeslicing hook of the job server. Requires CheckpointDir.
	Boundary func(iteration int, last bool) Boundary
}

// Boundary is what a run does at an iteration boundary when
// Options.Boundary polls it.
type Boundary int

const (
	// BoundaryContinue goes on to the next iteration without a checkpoint.
	BoundaryContinue Boundary = iota
	// BoundaryCheckpoint writes a durable checkpoint, then goes on.
	BoundaryCheckpoint
	// BoundaryYield writes a durable checkpoint and stops the run with an
	// error wrapping ErrPreempted.
	BoundaryYield
)

// InitialSetsAuto requests the default number of initial sets (1). The
// named sentinel makes "use the default" an explicit, spellable request
// instead of a silent mutation of a zero the caller may have meant
// literally: the impossible literal request (L = 0 initial sets) has no
// spelling at all.
const InitialSetsAuto = 0

// runConfig is a run's resolved, result-determining configuration: every
// option that influences the factors, defaults filled in, plus the cluster
// size. It is declared once and consumed whole — fingerprint hashes it field
// by field, encodeSetup ships it to remote executors — so a new
// result-determining knob is one field here and its rule in
// Options.resolve, not an entry in hand-kept lists.
// Checkpoint placement (CheckpointDir, Resume, Boundary) is deliberately
// absent: they affect durability and scheduling, never results. fingerprint
// hashes the fields, and encodeSetup ships them, in this order
// (runConfig.words).
type runConfig struct {
	Rank, MaxIter, MinIter             int
	InitialSets, Partitions, GroupBits int
	Tolerance                          int64
	Init                               InitScheme
	Seed                               int64
	Machines                           int
}

// Validate checks every rule the options must satisfy that depends on
// neither the tensor nor the cluster. It is the one statement of those
// rules: Decompose applies it before anything runs, and front ends (the job
// server's spec decoder) call it to refuse at submission exactly what the
// engine would refuse at run time.
func (o Options) Validate() error {
	_, err := o.resolve()
	return err
}

// resolve validates the options and fills every default that needs neither
// the tensor nor the cluster; withDefaults completes the rest.
func (o Options) resolve() (runConfig, error) {
	cfg := runConfig{
		Rank: o.Rank, MaxIter: o.MaxIter, MinIter: o.MinIter, InitialSets: o.InitialSets,
		Partitions: o.Partitions, GroupBits: o.GroupBits, Tolerance: o.Tolerance,
		Init: o.Init, Seed: o.Seed,
	}
	if cfg.Rank < 1 || cfg.Rank > boolmat.MaxRank {
		return cfg, fmt.Errorf("core: rank %d outside [1,%d]", cfg.Rank, boolmat.MaxRank)
	}
	if cfg.MaxIter == 0 {
		cfg.MaxIter = 10
	}
	if cfg.MaxIter < 1 {
		return cfg, fmt.Errorf("core: MaxIter %d < 1", cfg.MaxIter)
	}
	if cfg.MinIter == 0 {
		cfg.MinIter = 1
	}
	if cfg.MinIter < 1 || cfg.MinIter > cfg.MaxIter {
		return cfg, fmt.Errorf("core: MinIter %d outside [1,%d]", cfg.MinIter, cfg.MaxIter)
	}
	if cfg.Init < InitFiberSample || cfg.Init > InitTopFiber {
		return cfg, fmt.Errorf("core: unknown init scheme %d", int(cfg.Init))
	}
	if cfg.InitialSets == InitialSetsAuto {
		cfg.InitialSets = 1
	}
	if cfg.InitialSets < 1 {
		return cfg, fmt.Errorf("core: InitialSets %d < 1", cfg.InitialSets)
	}
	if cfg.Init == InitTopFiber && cfg.InitialSets > 1 {
		return cfg, fmt.Errorf("core: InitialSets %d > 1 is meaningless with the deterministic topfiber init (every set would be identical)", cfg.InitialSets)
	}
	if cfg.Partitions < 0 {
		return cfg, fmt.Errorf("core: Partitions %d < 0", cfg.Partitions)
	}
	if cfg.GroupBits == 0 {
		cfg.GroupBits = sumcache.DefaultGroupBits
	}
	if cfg.GroupBits < 1 || cfg.GroupBits > sumcache.MaxGroupBits {
		return cfg, fmt.Errorf("%w: %d", ErrGroupBits, cfg.GroupBits)
	}
	if cfg.Tolerance < 0 {
		return cfg, fmt.Errorf("core: Tolerance %d < 0", cfg.Tolerance)
	}
	if o.CheckpointDir == "" {
		if o.Resume {
			return cfg, errors.New("core: Resume requires CheckpointDir")
		}
		if o.Boundary != nil {
			return cfg, errors.New("core: Boundary requires CheckpointDir (eviction resumes from the checkpoint)")
		}
	}
	return cfg, nil
}

// withDefaults resolves the options against the run's cluster size: the
// default resolve cannot know (Partitions) and the machine count itself.
func (o Options) withDefaults(machines int) (runConfig, error) {
	cfg, err := o.resolve()
	if err != nil {
		return cfg, err
	}
	cfg.Machines = machines
	if cfg.Partitions == 0 {
		cfg.Partitions = machines
	}
	return cfg, nil
}

// ErrGroupBits is returned (wrapped) for a cache threshold V outside
// [1, sumcache.MaxGroupBits]: by option resolution, and by a worker
// decoding a set-up blob that carries one.
var ErrGroupBits = fmt.Errorf("core: GroupBits outside [1,%d]", sumcache.MaxGroupBits)

// ErrPreempted is returned (wrapped) by Decompose when Options.Boundary
// yielded the run at an iteration boundary. The boundary's state was
// durably checkpointed first, so rerunning with Resume continues the run
// bit-identically; nothing about the run failed. Callers detect it with
// errors.Is.
var ErrPreempted = errors.New("core: run preempted at iteration boundary")

// Result reports the outcome of a decomposition.
type Result struct {
	// A, B, C are the binary factor matrices (I×R, J×R, K×R).
	A, B, C *boolmat.FactorMatrix
	// Error is the final Boolean reconstruction error |X ⊕ X̂|.
	Error int64
	// Iterations is the number of full iterations executed.
	Iterations int
	// Converged reports whether the error-improvement criterion stopped
	// the iteration before MaxIter.
	Converged bool
	// InitialErrors holds the error of each of the L initial sets after
	// the first iteration.
	InitialErrors []int64
	// IterationErrors holds the reconstruction error of the kept factor
	// set after every iteration; the greedy column commits make it
	// monotonically non-increasing.
	IterationErrors []int64
	// Stats snapshots the cluster's traffic counters after the run.
	Stats cluster.Stats
	// SimTime is the simulated elapsed time on the cluster's machines.
	SimTime time.Duration
	// WallTime is the real elapsed time of the run.
	WallTime time.Duration
}

// Decompose runs DBTF (Algorithm 2) on the given cluster. The context
// bounds the run: cancellation or deadline expiry is checked between
// stages and surfaces as the context's error.
func Decompose(ctx context.Context, x *tensor.Tensor, cl *cluster.Cluster, opts Options) (*Result, error) {
	return decompose(ctx, x, nil, cl, opts, lookahead)
}

// DecomposeOn is Decompose of set's tensor on set's partitioned unfoldings,
// which outlive the run: the first run on an empty set builds it inside its
// own run span, every later one — concurrent ones included — reads it with
// no partition stage and no shuffle. The run's partition count
// and machine count must be the set's.
func DecomposeOn(ctx context.Context, set *Partitions, cl *cluster.Cluster, opts Options) (*Result, error) {
	return decompose(ctx, set.x, set, cl, opts, lookahead)
}

// checkDims refuses a tensor no partition stage could build: one with an
// empty mode, or an unfolding whose columns overflow int32
// (tensor.Mode.Columns).
func checkDims(dims [3]int) error {
	if dims[0] < 1 || dims[1] < 1 || dims[2] < 1 {
		return fmt.Errorf("empty tensor %dx%dx%d", dims[0], dims[1], dims[2])
	}
	for m := tensor.Mode1; m <= tensor.Mode3; m++ {
		if _, err := m.Columns(dims[0], dims[1], dims[2]); err != nil {
			return err
		}
	}
	return nil
}

// decompose is the one run: Decompose's on a private set it builds and
// releases, DecomposeOn's on a shared one, deciding at most span columns per
// eval stage. Every caller but the lookahead's own differential test passes
// lookahead.
func decompose(ctx context.Context, x *tensor.Tensor, set *Partitions, cl *cluster.Cluster, opts Options, span int) (*Result, error) {
	if x == nil {
		return nil, errors.New("core: nil tensor")
	}
	i, j, k := x.Dims()
	if err := checkDims([3]int{i, j, k}); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	cfg, err := opts.withDefaults(cl.Machines())
	if err != nil {
		return nil, err
	}
	switch {
	case set == nil:
		set = &Partitions{x: x, n: cfg.Partitions, machines: cfg.Machines, private: true}
		defer set.release()
	case set.n != cfg.Partitions || set.machines != cfg.Machines:
		return nil, fmt.Errorf("core: the shared set has %d partitions per unfolding on %d machines, the run wants %d on %d",
			set.n, set.machines, cfg.Partitions, cfg.Machines)
	}

	start := time.Now()
	cl.ResetClock()
	// The driver's executor spans all M logical machines, partitions placed
	// by the cluster's reassignment rule; remote executors span one each.
	d := &decomposition{ctx: ctx, rootCtx: ctx, x: x, cl: cl, opt: opts,
		ex: newExecutor(cfg, [3]int{i, j, k}, cl.Machines(), cl.MachineFor, span)}

	// Checkpointing: the fingerprint binds a checkpoint to this exact
	// configuration and tensor, and resume loads the latest snapshot
	// before any distributed work starts.
	checkpointing := opts.CheckpointDir != ""
	if checkpointing {
		d.fp = fingerprint(x, cfg)
	}
	var resumed *checkpoint
	if opts.Resume {
		ck, err := readCheckpoint(opts.CheckpointDir, d.fp)
		if err != nil {
			return nil, err
		}
		if ck != nil {
			if ck.Fingerprint != d.fp {
				return nil, fmt.Errorf("core: checkpoint fingerprint %#x does not match run fingerprint %#x (config or tensor changed)",
					ck.Fingerprint, d.fp)
			}
			if err := checkFactorShapes([3]*boolmat.FactorMatrix{ck.A, ck.B, ck.C}, d.ex.dims, cfg.Rank); err != nil {
				return nil, fmt.Errorf("core: checkpoint: %w", err)
			}
			if ck.Iteration > cfg.MaxIter {
				return nil, fmt.Errorf("core: checkpoint iteration %d > MaxIter %d", ck.Iteration, cfg.MaxIter)
			}
			resumed = ck
		}
	}

	// Run span: the RunEnd snapshot is the Stats accumulated during this
	// run (diffed against the entry snapshot, so a reused cluster folds
	// correctly), which the trace validator compares against the fold of
	// every event in between. The deferred end also closes a run aborted by
	// an error, including its open iteration span, so even a failed run
	// leaves a structurally valid trace. A resumed run's RunBegin names the
	// iteration it continues from and the error there.
	tr := cl.Tracer()
	statsBefore := cl.Stats()
	if tr.Enabled() {
		ev := trace.NewEvent(trace.RunBegin)
		ev.Name = fmt.Sprintf("dbtf rank=%d", cfg.Rank)
		ev.Machines = cl.Machines()
		ev.SimNanos = cl.SimElapsed().Nanoseconds()
		if resumed != nil {
			ev.Iteration, ev.Error = resumed.Iteration, &resumed.PrevErr
		}
		tr.Emit(ev)
		defer func() {
			if d.openIter > 0 {
				iev := trace.NewEvent(trace.IterationEnd)
				iev.Iteration = d.openIter
				iev.SimNanos = cl.SimElapsed().Nanoseconds()
				tr.Emit(iev)
			}
			eev := trace.NewEvent(trace.RunEnd)
			eev.SimNanos = cl.SimElapsed().Nanoseconds()
			d.traced.run = cl.Stats().Sub(statsBefore)
			eev.Delta = &d.traced.run
			tr.Emit(eev)
		}()
	}

	// Machine-loss recovery: when the cluster loses a machine, its share
	// of the cached partitions is re-shipped to the survivors and its
	// cache tables die with it (the survivors rebuild them on first use).
	d.cl.OnMachineLoss(d.machineLost)
	defer d.cl.OnMachineLoss(nil)
	// Every stage joins its task goroutines before returning, so when
	// Decompose returns nothing can still touch the cache tables and they go
	// back to the slab pool; the partitions are the set's.
	defer d.release()
	if err := d.partitionAll(set); err != nil {
		return nil, err
	}
	if err := d.shipSetup(); err != nil {
		return nil, err
	}

	res := &Result{}
	var a, b, c *boolmat.FactorMatrix
	var prevErr int64

	// finish closes completed iteration t at error e, its commits having
	// changed flips entries: record it, then checkpoint where the Boundary
	// poll says or, without one, at every boundary. The last boundary is
	// polled like any other; a yielded run gets the boundary's state
	// checkpointed so a Resume continues bit-identically.
	finish := func(t int, e, improvement, flips int64) error {
		res.Iterations, prevErr = t, e
		res.IterationErrors = append(res.IterationErrors, e)
		at := BoundaryContinue
		switch {
		case opts.Boundary != nil:
			at = opts.Boundary(t, res.Converged || t == cfg.MaxIter)
		case checkpointing:
			at = BoundaryCheckpoint
		}
		if at != BoundaryContinue {
			// An iteration whose checkpoint is durable is closed with its
			// error even when the write's cancellation ends the run.
			if durable, err := d.writeCheckpointStage(res, a, b, c, prevErr); err != nil {
				if durable {
					d.endIteration(t, e, improvement, flips)
				}
				return err
			}
		}
		d.endIteration(t, e, improvement, flips)
		if at == BoundaryYield {
			return fmt.Errorf("%w (after iteration %d)", ErrPreempted, t)
		}
		return nil
	}

	if resumed != nil {
		a, b, c = resumed.A, resumed.B, resumed.C
		prevErr = resumed.PrevErr
		res.InitialErrors = resumed.InitialErrors
		res.IterationErrors = resumed.IterationErrors
		res.Iterations = resumed.Iteration
		res.Converged = resumed.Converged
	} else {
		// First iteration: try L random initial sets and keep the best
		// (Algorithm 2, lines 5-8), each evaluated by the run's only
		// total-error stages: an initial set has no objective to carry from.
		// Each set's caches are dropped when the next set's factors are
		// installed; with a single set they stay live, so the
		// cache totalError built over b serves iteration 2's A-update. Only
		// initialSet draws from the RNG, and checkpoints exist only at
		// iteration boundaries, after the last draw: a resumed run never
		// needs the stream, so none is saved.
		rng := seededRand(cfg.Seed)
		defer putRand(rng)
		d.beginIteration(1)
		best := int64(math.MaxInt64)
		var bestFlips int64
		for l := 0; l < cfg.InitialSets; l++ {
			// Drawing the initial factors is driver-side work: a named
			// span charges its wall time to the driver section, so
			// per-stage attribution sees the init scheme's cost (topfiber's
			// data passes are not free, just near-linear).
			var ia, ib, ic *boolmat.FactorMatrix
			if err := d.cl.DriverNamed(d.ctx, "init", func() {
				ia, ib, ic = initialSet(rng, x, cfg)
			}); err != nil {
				return nil, err
			}
			if err := d.install(ia, ib, ic); err != nil {
				return nil, err
			}
			sweep, err := d.updateFactors()
			if err != nil {
				return nil, err
			}
			e, err := d.totalError()
			if err != nil {
				return nil, err
			}
			res.InitialErrors = append(res.InitialErrors, e)
			if e < best {
				a, b, c, best, bestFlips = ia, ib, ic, e, sweep.flips
			}
		}
		if err := finish(1, best, 0, bestFlips); err != nil {
			return nil, err
		}
	}

	// Every later iteration carries the objective through its commits
	// (committed): no stage recounts what the commits already summed, so an
	// iteration is its 3⌈R/3⌉ deciding rounds, and a resumed run, starting
	// from the checkpoint's error, runs no total-error stage at all. The
	// machines hold the kept set already, entry for entry, unless it was not
	// the last set tried or the run resumed: only then is it installed.
	for t := res.Iterations + 1; t <= cfg.MaxIter && !res.Converged; t++ {
		d.beginIteration(t)
		if err := d.install(a, b, c); err != nil {
			return nil, err
		}
		sweep, err := d.updateFactors()
		if err != nil {
			return nil, err
		}
		e := prevErr + sweep.objective
		res.Converged = t >= cfg.MinIter && prevErr-e <= cfg.Tolerance
		if err := finish(t, e, prevErr-e, sweep.flips); err != nil {
			return nil, err
		}
	}

	res.A, res.B, res.C = a, b, c
	res.Error = prevErr
	res.Stats = cl.Stats()
	res.SimTime = cl.SimElapsed()
	res.WallTime = time.Since(start)
	return res, nil
}

// spareRands keeps the generators runs drew their initial sets from, for
// the next runs: a generator's source is a 4.9 KB table, and reseeding one
// resets its whole stream, so a run given a spare draws exactly what a fresh
// rand.New(rand.NewSource(seed)) would. A buffered channel, not a
// sync.Pool, for the slab package's reason: whether a run finds one must
// not depend on when the collector last ran. Eight cover the runs a
// process holds at once (a job server's running slots); a generator past
// them is left to the collector.
var spareRands = make(chan *rand.Rand, 8)

// seededRand returns a generator seeded with seed, a spare if there is one;
// putRand takes it back once its draws are done.
func seededRand(seed int64) *rand.Rand {
	select {
	case rng := <-spareRands:
		rng.Seed(seed)
		return rng
	default:
		return rand.New(rand.NewSource(seed))
	}
}

// putRand keeps rng as a spare, unless enough are kept already.
func putRand(rng *rand.Rand) {
	select {
	case spareRands <- rng:
	default:
	}
}

// initialSet draws one set of initial factor matrices according to the
// configured scheme. InitTopFiber consumes no randomness.
func initialSet(rng *rand.Rand, x *tensor.Tensor, opt runConfig) (a, b, c *boolmat.FactorMatrix) {
	i, j, k := x.Dims()
	if opt.Init == InitTopFiber {
		return topfiber.SeedFactors(x, opt.Rank)
	}
	if opt.Init == InitRandom {
		// Density-matched: R components of density d³ each reconstruct a
		// tensor about as dense as x.
		d := math.Min(0.5, math.Max(0.01, math.Cbrt(x.Density()/float64(opt.Rank))))
		return boolmat.RandomFactor(rng, i, opt.Rank, d),
			boolmat.RandomFactor(rng, j, opt.Rank, d),
			boolmat.RandomFactor(rng, k, opt.Rank, d)
	}
	// Fiber sample: each component grows from the mode-1 fiber through a
	// uniformly drawn nonzero. Seeds are rejection-sampled away from cells
	// inside the block of an earlier component, so the components spread
	// over distinct structures instead of piling onto the densest one.
	coords := x.Coords()
	return topfiber.GrowFactors(x, opt.Rank, func(a, b, c *boolmat.FactorMatrix) (int, int, bool) {
		seed := coords[rng.Intn(len(coords))]
		for try := 0; try < 50 && a.RowMask(seed.I)&b.RowMask(seed.J)&c.RowMask(seed.K) != 0; try++ {
			seed = coords[rng.Intn(len(coords))]
		}
		return seed.J, seed.K, true
	})
}

type decomposition struct {
	// ctx is rootCtx with the current iteration's pprof label attached;
	// stages inherit it, so CPU profiles slice by iteration. rootCtx is the
	// caller's context, kept for re-labeling at each iteration boundary.
	ctx     context.Context
	rootCtx context.Context
	// openIter is the 1-based iteration whose trace span is open; 0 when
	// none. The run's deferred end event closes it on an aborted run.
	openIter int
	x        *tensor.Tensor
	cl       *cluster.Cluster
	// opt is the caller's options, read for what the executor's resolved
	// runConfig deliberately leaves out: checkpoint placement.
	opt Options
	// ex owns the run's replicated state and every stage kernel. The
	// simulated backend runs its kernels through RunStage's local closures,
	// typed and by reference; a remote backend runs the same kernels on the
	// workers' executors, kept identical to this one by PushState.
	ex *executor
	// fp is the config+tensor fingerprint binding checkpoints to this run;
	// zero when checkpointing is disabled.
	fp uint64
	// updates[mode] is the mode's factor update, made at its first run and
	// kept for the run (see factorUpdate).
	updates [3]*factorUpdate
	// traced holds the counts the iteration and run end events point at.
	// Emit copies them for a sink that keeps events, so they are reused.
	traced struct {
		err, improvement, flips int64
		run                     trace.StatsDelta
	}
}

// release returns the run's cache tables, lanes, splits and flip logs to
// the slab pool, once no stage can touch them.
func (d *decomposition) release() {
	d.ex.release()
	for _, u := range d.updates {
		if u != nil {
			slab.PutUint64s(u.flips)
			u.flips = nil
		}
	}
}

// machineLost is the cluster's machine-loss callback (invoked at stage
// boundaries, before any of the stage's tasks run): machine m's cache
// tables died with the machine — the survivors that inherit its partitions
// rebuild them on first use (executor.machineLost) — and m's share of every
// mode's cached partitions is re-shipped to the survivor, charged as
// shuffle traffic at the partitions' exact set-up bodies: the bytes a
// transport carries there with the first of m's batches, framing aside.
// During the partitioning stage itself the unfoldings are not distributed
// yet and there is nothing to re-ship.
func (d *decomposition) machineLost(m int) {
	d.ex.machineLost(m)
	var bytes int64
	for _, px := range d.ex.px {
		if px == nil {
			continue
		}
		for pi := range px.Parts {
			if pi%d.cl.Machines() == m {
				bytes += px.ReshipBytes(pi)
			}
		}
	}
	if bytes > 0 {
		d.cl.Shuffle(bytes)
	}
}

// writeCheckpointStage durably snapshots the run at the just-completed
// iteration boundary. The write is driver-side disk I/O: its wall-clock
// cost is charged through the cluster's Driver section and its size is
// recorded in Stats.CheckpointBytes. A cancellation that lands during the
// write is returned after it, with durable set: a resume continues from
// this checkpoint.
func (d *decomposition) writeCheckpointStage(res *Result, a, b, c *boolmat.FactorMatrix, prevErr int64) (durable bool, err error) {
	ck := &checkpoint{
		Fingerprint:     d.fp,
		Iteration:       res.Iterations,
		Converged:       res.Converged,
		PrevErr:         prevErr,
		InitialErrors:   res.InitialErrors,
		IterationErrors: res.IterationErrors,
		A:               a, B: b, C: c,
	}
	var bytes int64
	var werr error
	err = d.cl.DriverNamed(d.ctx, "checkpoint", func() {
		bytes, werr = writeCheckpoint(d.opt.CheckpointDir, ck)
		durable = werr == nil
	})
	if werr != nil {
		return false, fmt.Errorf("core: checkpoint at iteration %d: %w", res.Iterations, werr)
	}
	if durable {
		d.cl.RecordCheckpoint(bytes)
	}
	return durable, err
}

// beginIteration opens iteration t's trace span and re-labels the stage
// context so profiles attribute the iteration's kernels to it.
func (d *decomposition) beginIteration(t int) {
	d.ctx = pprof.WithLabels(d.rootCtx, pprof.Labels("iteration", strconv.Itoa(t)))
	if tr := d.cl.Tracer(); tr.Enabled() {
		ev := trace.NewEvent(trace.IterationBegin)
		ev.Iteration = t
		ev.SimNanos = d.cl.SimElapsed().Nanoseconds()
		tr.Emit(ev)
	}
	d.openIter = t
}

// endIteration closes iteration t's span, attaching the reconstruction
// error after the iteration, its improvement over the previous one and the
// number of factor entries the iteration's commits changed (the kept set's,
// in iteration 1).
func (d *decomposition) endIteration(t int, e, improvement, flips int64) {
	d.openIter = 0
	if tr := d.cl.Tracer(); tr.Enabled() {
		ev := trace.NewEvent(trace.IterationEnd)
		ev.Iteration = t
		ev.SimNanos = d.cl.SimElapsed().Nanoseconds()
		// Pointing at the parameters would move them to the heap on every
		// call, traced or not.
		d.traced.err, d.traced.improvement, d.traced.flips = e, improvement, flips
		ev.Error, ev.ErrorDelta, ev.Flips = &d.traced.err, &d.traced.improvement, &d.traced.flips
		tr.Emit(ev)
	}
}

// partitionAll installs the set's partitioned unfoldings, building them
// first when no run has (Algorithm 2, lines 1-3): each machine builds its
// mode's partitioning from the coordinate list in the run's partition
// stage, and the shuffle volume of distributing the partitions — their
// set-up bodies, exactly — is charged to the cluster (Lemma 6).
func (d *decomposition) partitionAll(set *Partitions) error {
	px, build, err := set.acquire(d.ctx)
	if !build {
		if err == nil {
			d.ex.install(px)
		}
		return err
	}
	err = d.ex.setup(d.x, !set.private, func(n int, fn func(m int) error) error {
		return d.cl.ForEachNamed(d.ctx, "partition", n, fn)
	})
	if err == nil {
		for _, px := range d.ex.px {
			d.cl.Shuffle(px.ShuffleBytes)
		}
	}
	set.settle(d.ex.px, err)
	return err
}

// shipSetup ships every remote machine the partitions homed on it, as
// their set-up bodies (encodeSetup): the distribution of the partitioned
// unfoldings Algorithm 2 pays once, which partitionAll charged. A
// rejoining machine gets its blob replayed, and the survivor a lost
// machine's batches are routed to gets the lost machine's with the first of
// them — the re-shipped partitions of the recovery protocol, over the real
// socket.
func (d *decomposition) shipSetup() error {
	return d.cl.PushSetup(d.ctx, func(home int) []byte {
		return encodeSetup(d.ex.cfg, d.ex.dims, home, d.ex.px)
	})
}

// committed is what a run of column commits did to the factors and, through
// them, to the objective |X ⊕ X̂|. A commit sets an entry from the sign of
// t = Σ_partitions (e1 − e0), the exact change in the objective between the
// entry's two values with everything else as it stands, so an entry that
// goes 0 → 1 moves the objective by t and one that goes 1 → 0 by −t, and the
// objective after any number of commits is the objective before plus the sum
// — int64 arithmetic on the integers the decision itself was made from,
// nothing approximated.
type committed struct {
	// objective is the signed change in |X ⊕ X̂|; never positive, since an
	// entry is set only when t < 0 and cleared only when t ≥ 0.
	objective int64
	// flips counts the entries whose value changed. An entry cleared at
	// t == 0 is a flip that leaves the objective where it was.
	flips int64
}

// install makes a, b, c the factor matrices every machine holds, unless
// they already are: each initial set, a kept set that was not the last one
// tried, and a resumed checkpoint's are installed; an iteration on the
// matrices the machines hold sends nothing, the stages' flip pushes having
// kept every replica entry-identical to the driver's. An install is Lemma
// 7's broadcast of the three matrices, once and not per iteration.
func (d *decomposition) install(a, b, c *boolmat.FactorMatrix) error {
	if [3]*boolmat.FactorMatrix{a, b, c} == d.ex.f {
		return nil
	}
	// BroadcastState (not plain Broadcast): the factor matrices are the
	// working set a machine must re-fetch to recover from a machine loss.
	d.cl.BroadcastState(int64(a.Rows()+b.Rows()+c.Rows()) * int64(d.ex.cfg.Rank) / 8)
	// The modeled broadcast above prices the transfer; these make it: the
	// driver's executor and every remote one replace their factors,
	// dropping the caches over the matrices they held.
	if err := d.ex.setFactors(a, b, c); err != nil {
		return err
	}
	return d.cl.PushState(d.ctx, transport.StateFactors, func() []byte { return encodeFactors(a, b, c) })
}

// updateFactors updates the installed A, B and C in place, one at a time
// while the other two are fixed (Algorithm 2, UpdateFactors), and returns
// what the sweep's commits changed.
func (d *decomposition) updateFactors() (committed, error) {
	var sweep committed
	for mode := range modeRoles {
		update, err := d.updateFactor(mode)
		if err != nil {
			return sweep, err
		}
		sweep.objective += update.objective
		sweep.flips += update.flips
	}
	return sweep, nil
}

// updateFactor updates the mode's factor matrix against its partitioned
// unfolding — Algorithm 4, with the per-row decision evaluated as the error
// difference e1 − e0 over the delta region of the two candidate summations
// instead of two full errors, and three columns decided per synchronisation
// round (see lookahead). The operand roles come from modeRoles. It returns
// what its commits changed.
func (d *decomposition) updateFactor(mode int) (committed, error) {
	u := d.updates[mode]
	if u == nil {
		u = newFactorUpdate(d, mode)
		d.updates[mode] = u
	}
	return u.run()
}

// factorUpdate is one mode's factor update, made once per run: the pprof
// labels of its stages, the stage functions the cluster is
// handed, bound once, the lanes the commit reads and the log of the flips
// it makes. An update reuses all of it, so it allocates only its one
// labelled context and the cache tables its first stage builds.
type factorUpdate struct {
	d    *decomposition
	mode int
	// labels are the "mode" and "stage" pprof labels of the update's eval
	// stages: the updated factor names the stage spans and the labels, so
	// both the timeline and CPU profiles split the three updates apart.
	labels pprof.LabelSet
	// spec describes the eval stages; spec.Col and span are the stage in
	// flight, a the matrix under update and done what the update's commits
	// have changed so far.
	spec transport.Spec
	span int
	a    *boolmat.FactorMatrix
	done committed
	// parts[pi] is partition pi's answer to the stage in flight.
	parts []stagePart
	// flips are the positions of the entries the stage in flight's commit
	// changed, ascending (see priceFlips); from the slab pool, sized for
	// the widest stage, so a commit never grows it.
	flips []uint64
	// local, sink, commit and encode are evalLocal, evalSink,
	// commitColumns and encodeFlips, bound once.
	local  func(pi int) error
	sink   func(pi int, payload []byte) error
	commit func()
	encode func() []byte
}

// stagePart is one partition's answer to an eval stage: its lanes, and the
// body bytes of the eval reply that carries them, which is what the driver
// collects.
type stagePart struct {
	deltas     []int32
	replyBytes int64
}

func newFactorUpdate(d *decomposition, mode int) *factorUpdate {
	role := modeRoles[mode]
	n := len(d.ex.px[mode].Parts)
	u := &factorUpdate{
		d: d, mode: mode, labels: pprof.Labels("mode", role.name, "stage", role.eval),
		spec:  transport.Spec{Kind: transport.KindEval, Mode: mode, Tasks: n},
		parts: make([]stagePart, n),
		flips: slab.Uint64s(d.ex.dims[role.upd] * d.ex.span)[:0],
	}
	u.local, u.sink, u.commit, u.encode = u.evalLocal, u.evalSink, u.commitColumns, u.encodeFlips
	return u
}

// run is one update of the mode's factor: one synchronisation round per
// stage of span columns and none beside them — the column tasks, cache
// tables included (Algorithm 5), are built inside the first stage (see
// executor.eval).
func (u *factorUpdate) run() (committed, error) {
	d := u.d
	u.a, u.done = d.ex.f[modeRoles[u.mode].upd], committed{}
	// One labelled context for every stage of the update: the cluster
	// finds its own stage name on it and derives nothing.
	ctx := pprof.WithLabels(d.ctx, u.labels)
	for u.spec.Col = 0; u.spec.Col < d.ex.cfg.Rank; u.spec.Col += u.span {
		if err := ctx.Err(); err != nil {
			return u.done, err
		}
		u.span = d.ex.stageSpan(u.spec.Col)
		if err := d.cl.RunStage(ctx, modeRoles[u.mode].eval, u.spec, u.local, u.sink); err != nil {
			return u.done, err
		}
		// The driver collects laneCount(span) values a row from every
		// partition — Lemma 7's N·rows values per column — as the eval
		// reply's body carries them (see appendReply): the rows' hits and
		// the region sizes the bases are summed from, each in the bits its
		// field's Exp-Golomb code needs.
		var collected int64
		for _, part := range u.parts {
			collected += part.replyBytes
		}
		d.cl.Collect(collected)
		if err := d.cl.DriverNamed(ctx, modeRoles[u.mode].commit, u.commit); err != nil {
			return u.done, err
		}
		// The stage replicates its commit as the entries it flipped: Lemma
		// 7's broadcast, priced at the push's body on both backends, and
		// nothing at all for a commit that flipped none.
		if len(u.flips) == 0 {
			continue
		}
		_, size := priceFlips(u.flips)
		d.cl.Broadcast(int64(size))
		if err := d.cl.PushState(ctx, transport.StateColumn, u.encode); err != nil {
			return u.done, err
		}
	}
	return u.done, nil
}

// evalLocal is the stage task (Algorithm 4 lines 4-9 reduced to the flipped
// cells only): partition pi evaluates, for each row, the error difference
// of its column range between the two candidate values, one lane per column
// and outcome. The local path expands the task's own accumulator in place
// and hands it to the driver by reference, and sizes the reply a remote
// executor would have sent from what the task tallied.
func (u *factorUpdate) evalLocal(pi int) error {
	ex := u.d.ex
	deltas, err := ex.eval(u.mode, pi, u.spec.Col)
	if err != nil {
		return err
	}
	s := &ex.splits[pi]
	s.expand(deltas)
	u.parts[pi] = stagePart{deltas, int64(s.body.size)}
	return nil
}

// evalSink takes partition pi's lanes from a remote executor's reply: a
// remote backend pays an encode and a decode, into the buffers the driver's
// own executor keeps for the partition. The reply is read against the
// partition's rows grouped here as the task grouped them — from A, which
// no commit touches before every reply is in, and the partition's blocks —
// and the task's lookups walked here over them.
func (u *factorUpdate) evalSink(pi int, payload []byte) error {
	ex := u.d.ex
	deltas := ex.lanes(u.mode, pi)
	u.parts[pi] = stagePart{deltas, int64(len(payload) - deltasHeaderLen)}
	return decodeReply(payload, ex.splitFor(pi), u.a, ex.f[modeRoles[u.mode].pvm], ex.px[u.mode].Parts[pi].Blocks, u.spec.Col, u.span, deltas)
}

// commitColumns is the driver's commit (Algorithm 4 lines 10-12): set the
// entry exactly when candidate 1's total error is strictly smaller, i.e.
// when the difference summed over the partitions is negative. The lanes are
// a row's decision tree in heap order: column c's outcome picks the lane
// c+1 is read from, so each t is the objective's change for its entry with
// the row's earlier columns as just committed, and the flipped entries'
// signed t's are the commit's whole effect on the objective (see
// committed). was is the row before the stage: a column's commit touches
// no other column's bit. Every flip goes into the flip log, in position
// order.
func (u *factorUpdate) commitColumns() {
	a, col, span, lanes := u.a, u.spec.Col, u.span, laneCount(u.span)
	u.flips = u.flips[:0]
	for r := 0; r < a.Rows(); r++ {
		lane, was := 0, a.RowMask(r)
		for j := 0; j < span; j++ {
			var t int64
			for _, part := range u.parts {
				t += int64(part.deltas[r*lanes+lane])
			}
			set := t < 0
			if set != (was>>uint(col+j)&1 != 0) {
				a.Set(r, col+j, set)
				u.flips = append(u.flips, uint64(r*span+j))
				u.done.flips++
				if set {
					u.done.objective += t
				} else {
					u.done.objective -= t
				}
			}
			lane = 2*lane + 1
			if set {
				lane++
			}
		}
	}
}

// encodeFlips packs the commit's flips, which every remote replica toggles
// to track the driver's factor entry for entry.
func (u *factorUpdate) encodeFlips() []byte {
	return appendFlips(nil, u.mode, u.spec.Col, u.span, u.a.Rows(), u.flips)
}

// totalError computes |X ⊕ X̂| from the mode-1 partitions as a distributed
// stage: the evaluation of an initial set, which every later iteration's
// objective is carried from (see committed). Its caches over B come from
// (and feed) the per-machine registry: the table it builds stays valid for
// iteration 2's A-update when the set is the only one.
func (d *decomposition) totalError() (int64, error) {
	n := len(d.ex.px[0].Parts)
	partial := make([]int64, n)
	spec := transport.Spec{Kind: transport.KindTotalError, Tasks: n}
	err := d.cl.RunStage(d.ctx, spec.Kind.String(), spec, func(pi int) (err error) {
		partial[pi], err = d.ex.totalError(pi)
		return err
	}, func(pi int, payload []byte) (err error) {
		partial[pi], err = decodePartial(payload)
		return err
	})
	if err != nil {
		return 0, err
	}
	d.cl.Collect(int64(n) * 8)
	var total int64
	for _, e := range partial {
		total += e
	}
	return total, nil
}
