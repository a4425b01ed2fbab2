package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"dbtf"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what a run needs from its surroundings.
type env struct {
	// Scratch is the run's own directory for inputs and server data.
	Scratch string
	// Host starts worker fleets; nil until a workload needs one.
	Host *workerHost
	// Log receives the human-readable report.
	Log io.Writer
}

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.Log, format+"\n", args...) }

// setupCycles is how many complete set-ups a run performs; setup_s is
// their median. The count is fixed, not timed: the first cycles of a
// process run on a cold heap and cost more, so a slow host that fitted
// fewer cycles into a budget would report a median shifted towards them.
// The last cycle is kept for the measured window.
const setupCycles = 15

// system is a workload's program, set up and ready to take ops.
type system interface {
	// measure drives the workload for the window and returns one outcome
	// per op attempted.
	measure(ctx context.Context, window time.Duration) ([]outcome, error)
	close() error
}

func (e *engine) measure(ctx context.Context, window time.Duration) ([]outcome, error) {
	return closedLoop(ctx, window, len(e.variants), len(e.variants), func(_, vi int) outcome { return e.run(ctx, vi, nil) }), nil
}

// served adapts the job server to system: its ops are the open loop's jobs.
type served struct {
	*service
	in   *inputs
	jobs []job
}

func (s *served) measure(ctx context.Context, window time.Duration) ([]outcome, error) {
	jobs, err := s.openLoop(ctx, s.in, window, s.w.Gap, len(s.in.Variants))
	if err != nil {
		return nil, err
	}
	s.jobs = jobs
	return jobOutcomes(jobs), nil
}

func jobOutcomes(jobs []job) []outcome {
	outs := make([]outcome, len(jobs))
	for i, j := range jobs {
		outs[i] = j.outcome
	}
	return outs
}

func setUp(ctx context.Context, e *env, w workload, in *inputs) (system, error) {
	if w.Kind == jobServer {
		s, err := startService(ctx, w, in, e.Scratch)
		if err != nil {
			return nil, err
		}
		return &served{service: s, in: in}, nil
	}
	return startEngine(ctx, w, in, e.Host)
}

// setUpRepeatedly performs complete set-ups, tearing each down before the
// next, and returns the last one running with every cycle's duration.
func setUpRepeatedly(ctx context.Context, e *env, w workload, in *inputs) (system, []float64, error) {
	var secs []float64
	for c := 1; ; c++ {
		t0 := time.Now()
		sys, err := setUp(ctx, e, w, in)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up cycle %d: %w", c, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		if c == setupCycles {
			return sys, secs, nil
		}
		if err := sys.close(); err != nil {
			return nil, nil, fmt.Errorf("tear-down after cycle %d: %w", c, err)
		}
	}
}

// runEndToEnd is one untraced run of a workload: generate the inputs,
// set up, measure the window, check every output, report the end-to-end
// metrics.
func runEndToEnd(ctx context.Context, e *env, w workload, seed int64, window time.Duration) (*result, error) {
	in, err := generate(w, seed, e.Scratch)
	if err != nil {
		return nil, err
	}
	sys, setups, err := setUpRepeatedly(ctx, e, w, in)
	if err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	outs, err := sys.measure(ctx, window)
	measured := time.Since(t0)
	runtime.ReadMemStats(&after)
	if err == nil {
		if s, ok := sys.(*served); ok {
			if err = s.fillTraffic(ctx, s.jobs); err == nil {
				outs = jobOutcomes(s.jobs)
			}
		}
	}
	if err = errors.Join(err, sys.close()); err != nil {
		return nil, err
	}
	if err := verify(ctx, w, in, outs); err != nil {
		return nil, err
	}
	walls := wallsOf(outs)
	e.logf("%s seed %d: %d ops in %.1fs, wall best %.1f ms, median %.1f ms, max %.1f ms (ungated: see README); set-up cycles %.3fs",
		w.Name, seed, len(outs), measured.Seconds(), bestWall(outs, w.variants()), median(walls), maxOf(walls), setups)

	n := float64(len(outs))
	res := summarize(w, outs)
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["allocs_per_op"] = metric{float64(after.Mallocs-before.Mallocs) / n, "count"}
	res.Metrics["alloc_mb_per_op"] = metric{float64(after.TotalAlloc-before.TotalAlloc) / n / 1e6, "MB"}
	return res, nil
}

// summarize folds the ops into the metrics that depend only on them. A
// failed op is never timed and always misses the limit.
func summarize(w workload, outs []outcome) *result {
	relErr := make([]float64, w.variants())
	traffic := make([]float64, w.variants())
	stages := make([]float64, w.variants())
	for v := range relErr {
		relErr[v], traffic[v], stages[v] = math.NaN(), math.NaN(), math.NaN()
	}
	failed, within := 0, 0
	for _, o := range outs {
		if o.Err != nil {
			failed++
			continue
		}
		relErr[o.Variant] = o.RelErr
		traffic[o.Variant] = float64(o.Traffic) / 1e6
		stages[o.Variant] = float64(o.Stages)
		if o.Wall <= w.Limit {
			within++
		}
	}
	return &result{
		Correct:   failed == 0,
		Attempted: len(outs),
		Failed:    failed,
		Metrics: map[string]metric{
			"stages_per_op":          {mean(stages), "count"},
			"relative_error":         {mean(relErr), "ratio"},
			"traffic_mb_per_op":      {mean(traffic), "MB"},
			"ops_within_limit_ratio": {float64(within) / float64(len(outs)), "ratio"},
		},
	}
}

// verify is the correctness oracle. It marks every op whose output it
// rejects as failed — failures are counted, never skipped:
//
//   - every repeat of a variant must hash to the same factors;
//   - over worker processes and through the job server, the factors must
//     hash-equal an in-process dbtf.Factorize of the same spec (up to 16
//     variants, spread over the inputs);
//   - on the first variant of each input, the engine's own account must
//     hold: Error equals Factors.ReconstructError(x), RelativeError is
//     Error/|X|, and IterationErrors has one non-increasing entry per
//     iteration.
func verify(ctx context.Context, w workload, in *inputs, outs []outcome) error {
	xs, err := readInputs(in.Files)
	if err != nil {
		return err
	}
	ref := &engine{w: w, xs: xs, variants: in.Variants}
	first := make([]*outcome, len(in.Variants))
	reject := make([]error, len(in.Variants))
	for i := range outs {
		o := &outs[i]
		if o.Err != nil {
			continue
		}
		switch f := first[o.Variant]; {
		case f == nil:
			first[o.Variant] = o
		case f.Hash != o.Hash:
			o.Err = fmt.Errorf("variant %d: factors %s differ from the first repeat's %s", o.Variant, o.Hash, f.Hash)
		}
	}
	const sample = 16
	stride := max(1, len(in.Variants)/sample)
	for vi, f := range first {
		if f == nil {
			continue
		}
		res := f.Result
		firstOfInput := vi < w.Inputs
		if res == nil && (firstOfInput || vi%stride == 0) {
			local := ref.run(ctx, vi, nil)
			if local.Err != nil {
				return fmt.Errorf("reference run of variant %d: %w", vi, local.Err)
			}
			if local.Hash != f.Hash || local.RelErr != f.RelErr {
				reject[vi] = fmt.Errorf("variant %d: factors %s (error %v) differ from the in-process run's %s (%v)",
					vi, f.Hash, f.RelErr, local.Hash, local.RelErr)
			}
			res = local.Result
		}
		if firstOfInput && reject[vi] == nil {
			reject[vi] = selfConsistent(w, xs[in.Variants[vi].Input], res)
		}
	}
	for i := range outs {
		if o := &outs[i]; o.Err == nil && reject[o.Variant] != nil {
			o.Err = reject[o.Variant]
		}
	}
	return nil
}

// selfConsistent checks a result's own account of itself against x.
func selfConsistent(w workload, x *dbtf.Tensor, res *dbtf.Result) error {
	if got := res.Factors.ReconstructError(x); got != res.Error {
		return fmt.Errorf("Result.Error %d, but the factors reconstruct with error %d", res.Error, got)
	}
	if want := float64(res.Error) / float64(x.NNZ()); res.RelativeError != want {
		return fmt.Errorf("RelativeError %v, want Error/|X| = %v", res.RelativeError, want)
	}
	if res.Iterations != w.Iters || len(res.IterationErrors) != w.Iters {
		return fmt.Errorf("%d iterations with %d recorded errors, want %d", res.Iterations, len(res.IterationErrors), w.Iters)
	}
	for i := 1; i < len(res.IterationErrors); i++ {
		if res.IterationErrors[i] > res.IterationErrors[i-1] {
			return fmt.Errorf("IterationErrors rises at %d: %v", i, res.IterationErrors)
		}
	}
	if last := res.IterationErrors[len(res.IterationErrors)-1]; last != res.Error {
		return fmt.Errorf("last iteration error %d, Result.Error %d", last, res.Error)
	}
	return nil
}
