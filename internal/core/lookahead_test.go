package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dbtf/internal/boolmat"
	"dbtf/internal/cluster"
	"dbtf/internal/tensor"
	"dbtf/internal/transport"
)

// commitLog is a hostTransport that records every committed column as the
// workers receive it — "mode/column:bits±Δ", one entry per column whether
// the push carried one or two — so two schedules can be compared commit by
// commit and row by row, not just by the factors they end with. Δ is what the
// column did to the objective, recounted: the log mirrors the replicas'
// factors from the pushes, applies a push one column at a time and takes the
// naive reconstruction error after each. sweeps holds the recount at the end
// of every sweep, which is what the run's carried objective must read there.
type commitLog struct {
	*hostTransport
	x         *tensor.Tensor
	f         [3]*boolmat.FactorMatrix
	objective int64
	commits   []string
	sweeps    []int64
}

func (l *commitLog) PushState(ctx context.Context, kind transport.StateKind, payload []byte) error {
	switch kind {
	case transport.StateFactors:
		l.endSweep()
		a, b, c, err := decodeFactors(payload)
		if err != nil {
			return err
		}
		l.f = [3]*boolmat.FactorMatrix{a, b, c}
		l.objective = tensor.ReconstructError(l.x, a, b, c)
	case transport.StateColumn:
		mode, col, span, rows, bits, err := decodeColumns(payload)
		if err != nil {
			return err
		}
		stride := (rows + 7) / 8
		for j := 0; j < span; j++ {
			column := bits[j*stride : (j+1)*stride]
			for r := 0; r < rows; r++ {
				l.f[mode].Set(r, col+j, column[r/8]&(1<<uint(r%8)) != 0)
			}
			e := tensor.ReconstructError(l.x, l.f[0], l.f[1], l.f[2])
			l.commits = append(l.commits, fmt.Sprintf("%d/%d:%x%+d", mode, col+j, column, e-l.objective))
			l.objective = e
		}
	}
	return l.hostTransport.PushState(ctx, kind, payload)
}

// endSweep records the objective the sweep in progress, if any, ended on.
func (l *commitLog) endSweep() {
	if l.f[0] != nil {
		l.sweeps = append(l.sweeps, l.objective)
	}
}

// TestLookaheadMatchesPerColumn holds the two-column stage to its oracle,
// Algorithm 4 as written: the same run scheduled one column a stage — the
// same kernel at span 1, driver and workers alike — must commit the same bit
// for every row of every column of every update, and so end with the same
// factors and error trajectory. Ranks 1, 3 and 5 end on the one-column tail;
// rank 64 puts bit 63 in lane 2.
func TestLookaheadMatchesPerColumn(t *testing.T) {
	const machines = 2
	rng := rand.New(rand.NewSource(26))
	for _, rank := range []int{1, 2, 3, 5, 64} {
		x, _, _, _ := plantedTensor(rng, 11, 9, 8, min(rank, 6), 0.3)
		for _, noCache := range []bool{false, true} {
			for _, sets := range []int{1, 2} {
				opt := Options{Rank: rank, Seed: int64(rank), InitialSets: sets, MinIter: 3, MaxIter: 3, Partitions: 3, NoCache: noCache}
				name := fmt.Sprintf("rank %d noCache=%v sets=%d", rank, noCache, sets)

				run := func(span int, remote bool) (*Result, []string) {
					cfg := cluster.Config{Machines: machines}
					var log *commitLog
					if remote {
						log = &commitLog{hostTransport: newHostTransport(machines), x: x}
						for _, h := range log.hosts {
							h.(*Worker).ex.span = span
						}
						cfg.Transport = log
					}
					res, err := decompose(context.Background(), x, nil, cluster.New(cfg), opt, span)
					if err != nil {
						t.Fatalf("%s span %d remote=%v: %v", name, span, remote, err)
					}
					if remote {
						log.endSweep()
						if carried := append(slices.Clone(res.InitialErrors), res.IterationErrors[1:]...); !slices.Equal(carried, log.sweeps) {
							t.Errorf("%s span %d: sweeps carried to %v, their columns recount to %v", name, span, carried, log.sweeps)
						}
						return res, log.commits
					}
					return res, nil
				}
				for _, remote := range []bool{false, true} {
					want, wantCommits := run(1, remote)
					got, gotCommits := run(lookahead, remote)
					if !got.A.Equal(want.A) || !got.B.Equal(want.B) || !got.C.Equal(want.C) {
						t.Errorf("%s remote=%v: factors differ from the one-column schedule's", name, remote)
					}
					if !reflect.DeepEqual(got.InitialErrors, want.InitialErrors) || !reflect.DeepEqual(got.IterationErrors, want.IterationErrors) {
						t.Errorf("%s remote=%v: errors %v %v, one column a stage gives %v %v",
							name, remote, got.InitialErrors, got.IterationErrors, want.InitialErrors, want.IterationErrors)
					}
					if !reflect.DeepEqual(gotCommits, wantCommits) {
						t.Errorf("%s: committed columns differ from the one-column schedule's:\n%s\nwant\n%s",
							name, strings.Join(gotCommits, " "), strings.Join(wantCommits, " "))
					}
					if remote && len(gotCommits) != 3*rank*(sets+2) {
						t.Errorf("%s: %d columns committed, want 3·%d·%d", name, len(gotCommits), rank, sets+2)
					}
					rounds := func(span int) int64 { return int64(1 + sets + (sets+2)*3*((rank+span-1)/span)) }
					if want.Stats.Stages != rounds(1) || got.Stats.Stages != rounds(lookahead) {
						t.Errorf("%s remote=%v: %d rounds at one column a stage and %d at %d, want %d and %d",
							name, remote, want.Stats.Stages, got.Stats.Stages, lookahead, rounds(1), rounds(lookahead))
					}
				}
			}
		}
	}
}
