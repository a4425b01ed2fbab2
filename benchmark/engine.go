package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dbtf"
	"dbtf/internal/serve"
)

// outcome is what one finished op reports, whichever way it was driven.
type outcome struct {
	Variant int
	// Wall is how long the caller waited; in the open loop it runs from
	// the instant the submission was due, so a stalled generator or a
	// queue counts against the op that suffered it.
	Wall time.Duration
	// Sim is the paper's M-machine makespan (Result.SimTime).
	Sim    time.Duration
	RelErr float64
	Hash   string
	// Traffic is the Lemma 6+7 formula volume: shuffled + broadcast +
	// collected bytes; Stages the number of cluster stages, each a
	// synchronisation round of all machines.
	Traffic, Stages int64
	// Err marks a failed op: the call failed, or the oracle rejected its
	// output afterwards.
	Err error
	// Result is the full engine result; nil for jobs run by the server.
	Result *dbtf.Result
}

func formulaBytes(s dbtf.ClusterStats) int64 {
	return s.ShuffledBytes + s.BroadcastBytes + s.CollectedBytes
}

// engine runs a workload's ops through dbtf.Factorize, in-process or over
// a fleet of worker processes.
type engine struct {
	w        workload
	xs       []*dbtf.Tensor
	variants []variant
	fleet    *fleet // nil in-process
}

// startEngine is one complete set-up as a user pays it: read the input
// files, start the fleet if the workload has one, and run one cold op.
func startEngine(ctx context.Context, w workload, in *inputs, host *workerHost) (*engine, error) {
	xs, err := readInputs(in.Files)
	if err != nil {
		return nil, err
	}
	e := &engine{w: w, xs: xs, variants: in.Variants}
	if w.Kind == tcpWorkers {
		if e.fleet, err = host.start(w.Machines); err != nil {
			return nil, err
		}
	}
	if o := e.run(ctx, 0, nil); o.Err != nil {
		return nil, errors.Join(fmt.Errorf("cold op: %w", o.Err), e.close())
	}
	return e, nil
}

func (e *engine) close() error {
	if e.fleet == nil {
		return nil
	}
	f := e.fleet
	e.fleet = nil
	return f.stop()
}

// options is the one place a variant becomes dbtf.Options; overrides are
// applied by the callers that probe a variation (threads, checkpoints).
func (e *engine) options(vi int) dbtf.Options {
	opt := dbtf.Options{
		Rank:     e.w.Rank,
		Machines: e.w.Machines,
		MaxIter:  e.w.Iters,
		MinIter:  e.w.Iters,
		Seed:     e.variants[vi].Seed,
	}
	if e.fleet != nil {
		opt.Workers = e.fleet.Addrs
	}
	return opt
}

func (e *engine) run(ctx context.Context, vi int, tracer *dbtf.Tracer) outcome {
	opt := e.options(vi)
	opt.Tracer = tracer
	return factorize(ctx, e.xs[e.variants[vi].Input], opt, vi)
}

func factorize(ctx context.Context, x *dbtf.Tensor, opt dbtf.Options, vi int) outcome {
	start := time.Now()
	res, err := dbtf.Factorize(ctx, x, opt)
	o := outcome{Variant: vi, Wall: time.Since(start), Err: err}
	if err != nil {
		return o
	}
	o.Sim = res.SimTime
	o.RelErr = res.RelativeError
	o.Hash = serve.FactorHash(res.A, res.B, res.C)
	o.Traffic, o.Stages = formulaBytes(res.Stats), res.Stats.Stages
	o.Result = res
	return o
}

// closedLoop is one caller that sends its next op only after the previous
// one returned. It cycles through the variants for the given time, and
// for at least minOps ops: the measured window passes the variant count,
// so the quality figures are taken over the same population on a slow
// host as on a fast one.
func closedLoop(ctx context.Context, window time.Duration, minOps, variants int, op func(i, vi int) outcome) []outcome {
	var out []outcome
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < window; i++ {
		if ctx.Err() != nil {
			break
		}
		out = append(out, op(i, i%variants))
	}
	return out
}
