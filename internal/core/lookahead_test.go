package core

import (
	"context"
	"encoding/binary"
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

// commitLog is a hostTransport that records every committed column that
// flipped an entry as the workers receive it — "mode/column:bits±Δ", one
// entry per such column whatever the push's span — so two schedules can be
// compared commit by commit and row by row, not just by the factors they
// end with. Δ is what the column did to the objective, recounted: the log
// mirrors the replicas' factors from the pushes, applies a push one column
// at a time and takes the naive reconstruction error after each. sweeps
// holds the recount at the end of every sweep — each opens with the first
// eval:A stage — which is what the run's carried objective must read there.
type commitLog struct {
	*hostTransport
	x         *tensor.Tensor
	f         [3]*boolmat.FactorMatrix
	objective int64
	sweeping  bool
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
		mode, span, col := int(payload[0]), int(payload[1]), int(binary.LittleEndian.Uint16(payload[2:]))
		next := l.f
		next[mode] = l.f[mode].Clone()
		if err := applyFlips(payload, next); err != nil {
			return err
		}
		for c := col; c < col+span; c++ {
			flipped := false
			for r := 0; r < next[mode].Rows(); r++ {
				flipped = flipped || l.f[mode].Get(r, c) != next[mode].Get(r, c)
				l.f[mode].Set(r, c, next[mode].Get(r, c))
			}
			if !flipped {
				continue
			}
			e := tensor.ReconstructError(l.x, l.f[0], l.f[1], l.f[2])
			l.commits = append(l.commits, fmt.Sprintf("%d/%d:%v%+d", mode, c, l.f[mode].Column(c), e-l.objective))
			l.objective = e
		}
	}
	return l.hostTransport.PushState(ctx, kind, payload)
}

func (l *commitLog) Run(ctx context.Context, spec transport.Spec, deliver func(transport.TaskResult) error) error {
	if spec.Kind == transport.KindEval && spec.Mode == 0 && spec.Col == 0 {
		l.endSweep()
		l.sweeping = true
	}
	return l.hostTransport.Run(ctx, spec, deliver)
}

// endSweep records the objective the sweep in progress, if any, ended on.
func (l *commitLog) endSweep() {
	if l.sweeping {
		l.sweeps = append(l.sweeps, l.objective)
		l.sweeping = false
	}
}

// TestLookaheadMatchesPerColumn holds every multi-column stage to its
// oracle, Algorithm 4 as written: the same run scheduled one column a stage
// — the same kernel at span 1, driver and workers alike — must commit the
// same bit for every row of every column of every update at spans 2 and 3
// — the same columns flip entries, to the same bits — and so end with the
// same factors and error trajectory. Ranks 1 to 5 end
// on every tail width; rank 64 puts bits 60–62 in one three-column stage
// beside the one-column tail at bit 63, and bit 63 in lane 2 at span 2.
func TestLookaheadMatchesPerColumn(t *testing.T) {
	const machines = 2
	rng := rand.New(rand.NewSource(26))
	flipped := false
	for _, rank := range []int{1, 2, 3, 4, 5, 64} {
		x, _, _, _ := plantedTensor(rng, 11, 9, 8, min(rank, 6), 0.3)
		for _, v := range []int{0, 1} {
			for _, sets := range []int{1, 2} {
				opt := Options{Rank: rank, Seed: int64(rank), InitialSets: sets, MinIter: 3, MaxIter: 3, Partitions: 3, GroupBits: v}
				name := fmt.Sprintf("rank %d V=%d sets=%d", rank, v, sets)

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
					rounds := func(span int) int64 { return int64(1 + sets + (sets+2)*3*((rank+span-1)/span)) }
					if want.Stats.Stages != rounds(1) {
						t.Errorf("%s remote=%v: %d rounds at one column a stage, want %d", name, remote, want.Stats.Stages, rounds(1))
					}
					flipped = flipped || len(wantCommits) > 0
					for span := 2; span <= lookahead; span++ {
						got, gotCommits := run(span, remote)
						if !got.A.Equal(want.A) || !got.B.Equal(want.B) || !got.C.Equal(want.C) {
							t.Errorf("%s span %d remote=%v: factors differ from the one-column schedule's", name, span, remote)
						}
						if !reflect.DeepEqual(got.InitialErrors, want.InitialErrors) || !reflect.DeepEqual(got.IterationErrors, want.IterationErrors) {
							t.Errorf("%s span %d remote=%v: errors %v %v, one column a stage gives %v %v",
								name, span, remote, got.InitialErrors, got.IterationErrors, want.InitialErrors, want.IterationErrors)
						}
						if !reflect.DeepEqual(gotCommits, wantCommits) {
							t.Errorf("%s span %d: committed columns differ from the one-column schedule's:\n%s\nwant\n%s",
								name, span, strings.Join(gotCommits, " "), strings.Join(wantCommits, " "))
						}
						if got.Stats.Stages != rounds(span) {
							t.Errorf("%s span %d remote=%v: %d rounds, want %d", name, span, remote, got.Stats.Stages, rounds(span))
						}
					}
				}
			}
		}
	}
	if !flipped {
		t.Error("no run flipped an entry: the commits went unchecked")
	}
}
