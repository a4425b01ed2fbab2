// Package dbtf implements fast and scalable distributed Boolean tensor
// factorization, reproducing the DBTF algorithm of Park, Oh and Kang
// (ICDE 2017).
//
// Boolean tensor factorization (BTF) decomposes a three-way binary tensor
// X ∈ B^{I×J×K} into binary factor matrices A, B, C minimizing the number
// of cells where X differs from the Boolean sum of rank-1 tensors
// ⋁_r a_:r ∘ b_:r ∘ c_:r (1+1 = 1). BTF yields sparse, directly
// interpretable components from relationship, membership and event data —
// knowledge-base triples, network traffic logs, temporal friendship
// networks — at the price of an NP-hard optimization.
//
// Factorize runs DBTF: a distributed alternating algorithm that never
// materializes the Khatri–Rao product, caches all 2^R Boolean row
// summations per pointwise vector-matrix product, and partitions the
// unfolded tensors vertically so partitions work independently. The
// distributed substrate is a simulated in-process cluster (package-level
// goroutine workers with traffic accounting); see the Machines and
// Partitions options.
//
// The package also provides the two baselines the paper compares against —
// FactorizeBCPALS and FactorizeWalkNMerge — plus tensor construction, I/O,
// synthetic data generation, and evaluation metrics.
//
// # Quick start
//
//	x, _ := dbtf.ReadTensorFile("triples.tns")
//	res, err := dbtf.Factorize(context.Background(), x, dbtf.Options{Rank: 10})
//	if err != nil { ... }
//	fmt.Println("error:", res.Error, "relative:", res.RelativeError)
//	for r := 0; r < 10; r++ {
//	    subjects := res.A.Column(r).Indices() // entities of concept r
//	    ...
//	}
package dbtf

import (
	"context"
	"errors"
	"math"
	"runtime"
	"time"

	"dbtf/internal/boolmat"
	"dbtf/internal/cluster"
	"dbtf/internal/core"
	"dbtf/internal/tensor"
	"dbtf/internal/transport/tcp"
)

// Options configures Factorize. Zero values select the documented
// defaults.
type Options struct {
	// Rank is the number of components R. Required; 1 ≤ R ≤ MaxRank.
	Rank int
	// MaxIter is the maximum number of alternating iterations T.
	// Default 10.
	MaxIter int
	// MinIter disables the convergence check before this many iterations.
	// Default 1.
	MinIter int
	// InitialSets is the number of initial factor sets L tried in the
	// first iteration, of which the best is kept. Default 1.
	InitialSets int
	// Machines is the simulated cluster size M. Real execution parallelism
	// is bounded by the host CPUs; the simulated-time ledger models M
	// machines. Default: GOMAXPROCS. Ignored when Workers is set.
	Machines int
	// Workers lists TCP addresses of dbtf-worker processes (one logical
	// machine each; see cmd/dbtf-worker). When non-empty the run executes
	// on those real processes instead of the in-process simulated cluster:
	// M is len(Workers), stage work travels over the sockets, and a worker
	// that dies mid-run is recovered exactly like a simulated machine
	// loss. For the same Seed, factors are bit-identical to a simulated
	// run with the same machine count. Incompatible with Faults (fault
	// injection is a property of the simulated backend).
	Workers []string
	// ThreadsPerMachine is accepted and ignored: a stage task runs on one
	// goroutine, as in the paper (DESIGN §4). The field survives only
	// because the frozen benchmark sets it (benchmark/layers.go:98) and
	// goes with that probe (ROADMAP item 8).
	//
	// Deprecated: intra-task threading never won a measurement and was
	// removed; parallelism is across Machines.
	ThreadsPerMachine int
	// Partitions is the number of vertical partitions N per unfolded
	// tensor. Default: Machines.
	Partitions int
	// CacheGroupBits is the cache-splitting threshold V: ranks above it
	// split the row-summation tables into ⌈R/V⌉ groups. Default 15; 1
	// caches no summation of two or more columns (the uncached ablation).
	CacheGroupBits int
	// Tolerance stops the iteration when the reconstruction error improves
	// by at most this much. Default 0 (stop when no strict improvement).
	Tolerance int64
	// Init selects the initialization scheme. Default InitFiberSample.
	Init InitScheme
	// Seed makes runs deterministic.
	Seed int64
	// Faults, when non-nil, injects deterministic task failures, panics,
	// and machine losses into the simulated cluster; see FaultPlan. A
	// failed task is re-executed (four attempts, Spark's default), so
	// injected faults never change the result, only the simulated makespan
	// and the Stats fault counters.
	Faults *FaultPlan
	// CheckpointDir, when non-empty, enables durable iteration-level
	// checkpointing: the run's state is written atomically to this
	// directory where Boundary says or, without it, at every iteration
	// boundary, so a killed run can be continued bit-identically with
	// Resume.
	CheckpointDir string
	// Resume continues from the checkpoint in CheckpointDir instead of
	// initializing; the checkpoint must match this run's configuration
	// and tensor. A missing checkpoint starts fresh. Requires
	// CheckpointDir.
	Resume bool
	// Boundary, when non-nil, is polled once at every iteration boundary,
	// the last included (last is true where the run converged or reached
	// MaxIter), and places every checkpoint: BoundaryCheckpoint writes one
	// and goes on, BoundaryYield writes one and stops with an error
	// wrapping ErrPreempted, so a scheduler can evict a running job and
	// later continue it bit-identically with Resume, and BoundaryContinue
	// writes none. Requires CheckpointDir.
	Boundary func(iteration int, last bool) Boundary
	// Tracer, when non-nil, receives the run's structured event stream:
	// stage/driver/iteration spans, traffic charges, retries, and machine
	// liveness, on both the wall and the simulated clock. Build one with
	// NewTracer; see cmd/dbtf's -trace flag for the file form and
	// its -v flag for a sink that prints progress lines.
	Tracer *Tracer
}

// Validate checks every rule the options must satisfy that does not depend
// on the tensor: the cluster's (machine count, fault-plan rates), the
// engine's (rank, iteration bounds, init and checkpoint combinations), and
// that Faults is not combined with Workers. Factorize
// applies it before anything runs; front ends call it to refuse a bad
// request before doing any work.
func (opt Options) Validate() error {
	if len(opt.Workers) > 0 && opt.Faults != nil {
		return errors.New("dbtf: Faults requires the simulated backend (unset Workers)")
	}
	if err := opt.clusterConfig().Validate(); err != nil {
		return err
	}
	return opt.coreOptions().Validate()
}

// clusterConfig maps the options onto the cluster's; Factorize adds the
// dialed transport when Workers is set.
func (opt Options) clusterConfig() cluster.Config {
	machines := opt.Machines
	if len(opt.Workers) > 0 {
		machines = len(opt.Workers)
	} else if machines == 0 {
		machines = runtime.GOMAXPROCS(0)
	}
	return cluster.Config{
		Machines: machines,
		Faults:   opt.Faults,
		Tracer:   opt.Tracer,
	}
}

// coreOptions maps the options onto the engine's.
func (opt Options) coreOptions() core.Options {
	return core.Options{
		Rank:          opt.Rank,
		MaxIter:       opt.MaxIter,
		MinIter:       opt.MinIter,
		InitialSets:   opt.InitialSets,
		Partitions:    opt.Partitions,
		GroupBits:     opt.CacheGroupBits,
		Tolerance:     opt.Tolerance,
		Init:          opt.Init,
		Seed:          opt.Seed,
		CheckpointDir: opt.CheckpointDir,
		Resume:        opt.Resume,
		Boundary:      opt.Boundary,
	}
}

// InitScheme selects how initial factor matrices are drawn; see the
// exported constants.
type InitScheme = core.InitScheme

const (
	// InitFiberSample seeds each component from the fiber cross of a
	// random nonzero (default).
	InitFiberSample InitScheme = core.InitFiberSample
	// InitRandom draws factor entries independently, at a density matched
	// to the tensor's, as the paper's Algorithm 2 states literally; on
	// sparse tensors the greedy update then collapses to all-zero factors.
	// Kept for ablations.
	InitRandom InitScheme = core.InitRandom
	// InitTopFiber seeds components greedily from the tensor's top fibers
	// (topFiberM): deterministic in the data alone, near-linear, and
	// usually the fastest route to convergence. Rejects InitialSets > 1 —
	// every set would be identical.
	InitTopFiber InitScheme = core.InitTopFiber
)

// ParseInitScheme parses the flag spelling of an initialization scheme
// ("fiber", "random", "topfiber"); the empty string selects the default.
func ParseInitScheme(s string) (InitScheme, error) { return core.ParseInitScheme(s) }

// MaxRank is the largest supported decomposition rank.
const MaxRank = boolmat.MaxRank

// ErrPreempted is returned (wrapped) by Factorize when Options.Boundary
// yields a run at an iteration boundary; the checkpoint written at that
// boundary makes a later Resume bit-identical to an uninterrupted run.
var ErrPreempted = core.ErrPreempted

// Boundary is what a run does at an iteration boundary when
// Options.Boundary polls it.
type Boundary = core.Boundary

const (
	// BoundaryContinue goes on without a checkpoint.
	BoundaryContinue Boundary = core.BoundaryContinue
	// BoundaryCheckpoint writes a durable checkpoint, then goes on.
	BoundaryCheckpoint Boundary = core.BoundaryCheckpoint
	// BoundaryYield writes a durable checkpoint and stops the run with an
	// error wrapping ErrPreempted.
	BoundaryYield Boundary = core.BoundaryYield
)

// Factors groups the three binary factor matrices of a decomposition:
// A is I×R, B is J×R, C is K×R.
type Factors struct {
	A, B, C *FactorMatrix
}

// Result reports a DBTF factorization.
type Result struct {
	Factors
	// Error is the Boolean reconstruction error |X ⊕ X̂|.
	Error int64
	// RelativeError is Error / |X| (1.0 = trivial all-zero factors).
	RelativeError float64
	// Iterations is the number of alternating iterations executed.
	Iterations int
	// Converged reports whether the tolerance criterion stopped the run
	// before MaxIter.
	Converged bool
	// InitialErrors holds the error of each initial set after the first
	// iteration.
	InitialErrors []int64
	// IterationErrors holds the reconstruction error after every
	// iteration; the greedy column commits make it monotonically
	// non-increasing.
	IterationErrors []int64
	// Stats reports the simulated cluster's traffic counters: shuffled,
	// broadcast, and collected bytes.
	Stats ClusterStats
	// Machines is the machine count the run used: Options.Machines,
	// GOMAXPROCS when that is 0, or the worker count over TCP.
	Machines int
	// SimTime is the simulated elapsed time on Machines machines.
	SimTime time.Duration
	// WallTime is the real elapsed time.
	WallTime time.Duration
}

// Factorize computes the rank-R Boolean CP decomposition of x with DBTF.
// The context bounds the run; cancellation and deadline expiry surface as
// the context's error.
func Factorize(ctx context.Context, x *Tensor, opt Options) (out *Result, err error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	ccfg := opt.clusterConfig()
	if len(opt.Workers) > 0 {
		co, derr := tcp.DialContext(ctx, tcp.Config{Addrs: opt.Workers})
		if derr != nil {
			return nil, derr
		}
		defer func() {
			if cerr := co.Close(); cerr != nil && err == nil {
				out, err = nil, cerr
			}
		}()
		ccfg.Transport = co
	}
	res, err := core.Decompose(ctx, x, cluster.New(ccfg), opt.coreOptions())
	if err != nil {
		return nil, err
	}
	out = &Result{
		Factors:         Factors{A: res.A, B: res.B, C: res.C},
		Error:           res.Error,
		Iterations:      res.Iterations,
		Converged:       res.Converged,
		InitialErrors:   res.InitialErrors,
		IterationErrors: res.IterationErrors,
		Stats:           res.Stats,
		Machines:        ccfg.Machines,
		SimTime:         res.SimTime,
		WallTime:        res.WallTime,
	}
	if x.NNZ() > 0 {
		out.RelativeError = float64(res.Error) / float64(x.NNZ())
	} else if res.Error > 0 {
		// Same convention as metrics.RelativeError: a nonempty
		// reconstruction of an empty tensor has no normalizer.
		out.RelativeError = math.Inf(1)
	}
	return out, nil
}

// Reconstruct materializes the Boolean reconstruction of the factors as a
// tensor. Intended for small tensors; for scoring use ReconstructError.
func (f Factors) Reconstruct() *Tensor {
	return tensor.Reconstruct(f.A, f.B, f.C)
}

// ReconstructError returns |x ⊕ X̂| for this factor set without
// materializing the reconstruction.
func (f Factors) ReconstructError(x *Tensor) int64 {
	return tensor.ReconstructError(x, f.A, f.B, f.C)
}
