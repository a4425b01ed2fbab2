package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"dbtf/internal/boolmat"
	"dbtf/internal/cluster"
	"dbtf/internal/gen"
	"dbtf/internal/tensor"
	"dbtf/internal/trace"
)

// recount is the oracle the carried objective is held to: a fresh executor
// set up over x under cfg, handed the factors, summing executor.totalError
// over the mode-1 partitions — the stage every iteration used to end with.
func recount(t *testing.T, x *tensor.Tensor, cfg runConfig, a, b, c *boolmat.FactorMatrix) int64 {
	t.Helper()
	i, j, k := x.Dims()
	ex := newExecutor(cfg, [3]int{i, j, k}, 1, func(int) int { return 0 }, lookahead)
	defer ex.release()
	err := ex.setup(x.UnfoldAll(), serially)
	if err == nil {
		err = ex.setFactors(a, b, c)
	}
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for pi := range ex.px[0].Parts {
		e, err := ex.totalError(pi)
		if err != nil {
			t.Fatal(err)
		}
		total += e
	}
	return total
}

// TestCarriedObjectiveEqualsRecount: the error of every iteration — counted
// by a stage in iteration 1, carried through the column commits ever after —
// is the error a recount over the factors as they stood at that boundary
// finds, by the partitions' totalError and by the tensor-level naive
// reconstruction alike. The factors at a boundary are the ones its
// checkpoint holds, read while the iteration's end event is being emitted.
// Every backend, cached and not, ranks that end on the one-column tail and
// one past the 32-bit half of the row mask, one and several initial sets,
// one partition, one per machine and more than any unfolding has columns; run straight through, evicted and resumed at every boundary
// (each slice starts from a checkpoint's error and counts nothing), and
// under a seeded fault plan that loses machines mid-update.
func TestCarriedObjectiveEqualsRecount(t *testing.T) {
	const machines, iters = 3, 4
	// Noisy enough that iterations 2 and 3 still flip entries at every rank
	// above 1: an objective carried over no flip would prove nothing.
	rng := rand.New(rand.NewSource(27))
	planted, _, _, _ := gen.FromFactors(rng, 10, 9, 8, 5, 0.35)
	x := gen.AddNoise(rng, planted, 0.15, 0.15)

	backends := map[string]func() cluster.Config{
		"simulator":     func() cluster.Config { return cluster.Config{} },
		"hostTransport": func() cluster.Config { return cluster.Config{Transport: newHostTransport(machines)} },
		"batched hosts": func() cluster.Config { return cluster.Config{Transport: newBatchHostTransport(machines)} },
		"machine loss": func() cluster.Config {
			return cluster.Config{Faults: &cluster.FaultPlan{Seed: 27, FailureRate: 0.05, MachineLossRate: 0.15, MachineRejoinAfter: 2}}
		},
	}
	for backend, config := range backends {
		carried := 0
		for _, noCache := range []bool{false, true} {
			for _, rank := range []int{1, 4, 5, 33} {
				for _, sets := range []int{1, 3} {
					for _, partitions := range []int{1, machines, 100} {
						for _, evict := range []bool{false, true} {
							opt := Options{Rank: rank, Seed: int64(rank), InitialSets: sets, MinIter: iters, MaxIter: iters,
								Partitions: partitions, NoCache: noCache, CheckpointDir: t.TempDir()}
							if evict {
								opt.Preempt = func() bool { return true }
							}
							name := fmt.Sprintf("%s noCache=%v rank %d sets=%d partitions=%d evict=%v", backend, noCache, rank, sets, partitions, evict)
							cfg, err := opt.withDefaults(machines)
							if err != nil {
								t.Fatal(err)
							}
							fp := fingerprint(x, cfg)
							boundaries, losses := 0, 0
							sink := sinkFunc(func(ev *trace.Event) {
								switch ev.Type {
								case trace.MachineLoss:
									losses++
								case trace.IterationEnd:
									boundaries++
									if ev.Iteration > 1 && *ev.ErrorDelta != 0 {
										carried++
									}
									ck, err := readCheckpoint(opt.CheckpointDir, fp)
									if err != nil || ck == nil || ck.Iteration != ev.Iteration {
										t.Fatalf("%s: checkpoint at the end of iteration %d: %+v, %v", name, ev.Iteration, ck, err)
									}
									byPartitions := recount(t, x, cfg, ck.A, ck.B, ck.C)
									naive := tensor.ReconstructError(x, ck.A, ck.B, ck.C)
									if *ev.Error != byPartitions || *ev.Error != naive || ck.PrevErr != naive {
										t.Errorf("%s: iteration %d reports error %d (checkpoint %d); the partitions recount %d, the tensor %d",
											name, ev.Iteration, *ev.Error, ck.PrevErr, byPartitions, naive)
									}
								}
							})
							var res *Result
							for slice := 0; res == nil; slice++ {
								cc := config()
								cc.Machines, cc.Tracer = machines, trace.New(sink)
								res, err = Decompose(context.Background(), x, cluster.New(cc), opt)
								if err != nil && !(evict && errors.Is(err, ErrPreempted) && slice < iters) {
									t.Fatalf("%s: slice %d: %v", name, slice, err)
								}
								opt.Resume = true
							}
							if boundaries != iters || len(res.IterationErrors) != iters {
								t.Errorf("%s: %d boundaries checked, %d errors reported, want %d", name, boundaries, len(res.IterationErrors), iters)
							}
							if backend == "machine loss" && losses == 0 {
								t.Errorf("%s: the fault plan lost no machine: pick another seed", name)
							}
						}
					}
				}
			}
		}
		if carried == 0 {
			t.Errorf("%s: no iteration after the first moved the error: the carried objective went untested", backend)
		}
	}
}

// TestCommitCountsTieBreakAsFlipNotGain: a row whose entry is 1 and whose
// two candidate errors tie (t == 0) is cleared — ties go to 0 — so the entry
// changes and the objective does not: one flip, carried change 0, and the
// recount agrees. The tensor is one rank-1 block of two cells, b∘c, of which
// row 0 holds exactly one.
func TestCommitCountsTieBreakAsFlipNotGain(t *testing.T) {
	x := tensor.MustFromCoords(2, 2, 1, []tensor.Coord{{I: 0, J: 0, K: 0}})
	a, b, c := boolmat.NewFactor(2, 1), boolmat.NewFactor(2, 1), boolmat.NewFactor(1, 1)
	a.Set(0, 0, true)
	b.Set(0, 0, true)
	b.Set(1, 0, true)
	c.Set(0, 0, true)
	before := tensor.ReconstructError(x, a, b, c)
	d := newTestDecomposition(t, x, Options{Rank: 1, Partitions: 2}, 2)
	update := updateMode(t, d, 0, a, b, c)
	if a.RowMask(0) != 0 {
		t.Fatalf("row 0 kept its entry on a tie: ties go to 0")
	}
	after := tensor.ReconstructError(x, a, b, c)
	if want := (committed{objective: 0, flips: 1}); update != want || after != before {
		t.Errorf("the tie-break commit reports %+v, want %+v; the recount went %d → %d", update, want, before, after)
	}
}
