package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"

	"dbtf/internal/boolmat"
	"dbtf/internal/cluster"
	"dbtf/internal/trace"
)

// TestDecomposeTraceClosesRunOnError asserts the abort path still emits a
// balanced stream: a context cancelled mid-run must close any open
// iteration span before the run span, so the trace validates.
func TestDecomposeTraceClosesRunOnError(t *testing.T) {
	buf := &trace.Buffer{}
	cl := cluster.New(cluster.Config{Machines: 2, Tracer: trace.New(buf)})
	x := randomTensor(rand.New(rand.NewSource(5)), 8, 8, 8, 0.2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Decompose(ctx, x, cl, Options{Rank: 2, Seed: 1}); err == nil {
		t.Fatal("cancelled decomposition succeeded")
	}
	if _, err := trace.Validate(buf.Events); err != nil {
		t.Fatalf("aborted run left an invalid trace: %v", err)
	}
}

// TestCancelDuringCheckpointClosesIteration: a cancel that lands while an
// iteration's checkpoint is written ends the run once the checkpoint is
// durable, and the iteration's span closes with its error, since a resume
// continues after it.
func TestCancelDuringCheckpointClosesIteration(t *testing.T) {
	x := randomTensor(rand.New(rand.NewSource(5)), 8, 8, 8, 0.2)
	o := Options{Rank: 2, Seed: 1, MaxIter: 3, MinIter: 3}
	want, err := Decompose(context.Background(), x, testCluster(2), o)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var ends []*trace.Event
	cl := tracedCluster(2, func(ev *trace.Event) {
		if ev.Type == trace.DriverBegin && ev.Name == "checkpoint" {
			cancel()
		} else if ev.Type == trace.IterationEnd {
			ends = append(ends, ev)
		}
	})
	o.CheckpointDir = t.TempDir()
	if _, err := Decompose(ctx, x, cl, o); !errors.Is(err, context.Canceled) || len(ends) != 1 || ends[0].Error == nil || *ends[0].Error != want.IterationErrors[0] {
		t.Fatalf("the run returned %v with iteration ends %+v; want context.Canceled after iteration 1 at error %d", err, ends, want.IterationErrors[0])
	}
}

// TestStageTasksCarryProfileLabels pins the slicing README "Profiling a
// run" documents: a stage task's goroutine carries the "iteration", "mode"
// and "stage" pprof labels together. The goroutine profile is taken from
// inside the first eval task, while it builds its column task — the
// executor's place function runs there — and the record whose stack holds
// executor.build must show all three: the cache builds are attributed to
// column 0's eval stage.
func TestStageTasksCarryProfileLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	x := randomTensor(rng, 8, 7, 6, 0.2)
	d := newTestDecomposition(t, x, Options{Rank: 3, Partitions: 2}, 2)
	d.rootCtx = context.Background()
	d.beginIteration(3)

	var (
		once sync.Once
		prof bytes.Buffer
	)
	place := d.ex.place
	d.ex.place = func(pi int) int {
		once.Do(func() {
			if err := pprof.Lookup("goroutine").WriteTo(&prof, 1); err != nil {
				t.Error(err)
			}
		})
		return place(pi)
	}
	updateMode(t, d, 1, boolmat.RandomFactor(rng, 8, 3, 0.3), boolmat.RandomFactor(rng, 7, 3, 0.3), boolmat.RandomFactor(rng, 6, 3, 0.3))

	// debug=1 prints one record per distinct (stack, labels): a count line,
	// a "# labels:" line when the goroutine has any, then the frames.
	for _, rec := range strings.Split(prof.String(), "\n\n") {
		if !strings.Contains(rec, "(*executor).build") {
			continue
		}
		for _, want := range []string{`"iteration":"3"`, `"mode":"B"`, `"stage":"eval:B"`} {
			if !strings.Contains(rec, want) {
				t.Errorf("building eval task's goroutine lacks label %s:\n%s", want, rec)
			}
		}
		return
	}
	t.Fatalf("no goroutine inside executor.build in the profile:\n%s", prof.String())
}

// TestEveryStageCarriesProfileLabels extends TestStageTasksCarryProfileLabels
// to every stage of a run, the ones the cluster labels itself included: with
// every attempt but the last of every task failing, each task emits a retry
// event from its own goroutine, and the tracer hands it to the sink on that
// goroutine, inside the stage. A goroutine profile taken there shows the
// stage's labels on every record that holds the retry: the caller's label on
// all of them, the "stage" label, the "iteration" label on everything inside
// an iteration — the partitioning precedes the first — and "mode" on the
// eval stages.
func TestEveryStageCarriesProfileLabels(t *testing.T) {
	x := randomTensor(rand.New(rand.NewSource(33)), 8, 7, 6, 0.2)
	var (
		mu       sync.Mutex
		names    = map[int64]string{}
		profiles = map[string]string{}
	)
	cl := cluster.New(cluster.Config{
		Machines: 2,
		Faults:   &cluster.FaultPlan{Seed: 1, FailureRate: 1},
		Tracer: trace.New(sinkFunc(func(ev *trace.Event) {
			mu.Lock()
			defer mu.Unlock()
			switch ev.Type {
			case trace.StageBegin:
				names[ev.Stage] = ev.Name
			case trace.Retry:
				if name := names[ev.Stage]; profiles[name] == "" {
					var prof bytes.Buffer
					if err := pprof.Lookup("goroutine").WriteTo(&prof, 1); err != nil {
						t.Error(err)
					}
					profiles[name] = prof.String()
				}
			}
		})),
	})
	ctx := pprof.WithLabels(context.Background(), pprof.Labels("job", "j7"))
	if _, err := Decompose(ctx, x, cl, Options{Rank: 3, MaxIter: 1, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string][]string{
		"partition":   {`"stage":"partition"`},
		"total-error": {`"stage":"total-error"`, `"iteration":"1"`},
		"eval:A":      {`"stage":"eval:A"`, `"iteration":"1"`, `"mode":"A"`},
		"eval:B":      {`"stage":"eval:B"`, `"iteration":"1"`, `"mode":"B"`},
		"eval:C":      {`"stage":"eval:C"`, `"iteration":"1"`, `"mode":"C"`},
	} {
		want = append(want, `"job":"j7"`)
		found := false
		for _, rec := range strings.Split(profiles[name], "\n\n") {
			if !strings.Contains(rec, "(*Cluster).emitRetry") {
				continue
			}
			found = true
			for _, label := range want {
				if !strings.Contains(rec, label) {
					t.Errorf("a %s task's goroutine lacks label %s:\n%s", name, label, rec)
				}
			}
		}
		if !found {
			t.Errorf("no goroutine inside a %s retry in the profile:\n%s", name, profiles[name])
		}
	}
}

// TestRunStagesAreColumnsAndOneError pins the round count, the paper's
// makespan unit: a run synchronises once to partition, once per lookahead
// columns of every factor update — the last stage taking the columns left —
// and once per initial set to learn the error every later iteration is
// carried from: 1 + L + (L + T − 1)·3⌈R/3⌉ rounds, nothing that only warms
// state and nothing that only recounts — on the simulator and over Worker
// hosts alike. A run resumed after iteration 1 starts from the checkpoint's
// error: its T − 1 sweeps and no total-error round at all.
func TestRunStagesAreColumnsAndOneError(t *testing.T) {
	const rank, sets, iters = 3, 2, 3
	x := randomTensor(rand.New(rand.NewSource(13)), 10, 9, 8, 0.2)
	const perSweep = 3 * ((rank + lookahead - 1) / lookahead)
	allowed := map[string]bool{"partition": true, "eval:A": true, "eval:B": true, "eval:C": true, "total-error": true}
	for _, backend := range []string{"simulator", "hostTransport"} {
		base := Options{Rank: rank, Seed: 13, InitialSets: sets, MinIter: iters, MaxIter: iters, Partitions: 3}
		evicted := base
		evicted.CheckpointDir, evicted.Boundary = t.TempDir(), func(int, bool) Boundary { return BoundaryYield }
		resumed := evicted
		resumed.Boundary, resumed.Resume = nil, true
		for _, run := range []struct {
			name                string
			opt                 Options
			stages, totalErrors int64
		}{
			{"uninterrupted", base, 1 + sets + (sets+iters-1)*perSweep, sets},
			{"evicted after iteration 1", evicted, 1 + sets + sets*perSweep, sets},
			{"resumed", resumed, 1 + (iters-1)*perSweep, 0},
		} {
			buf := &trace.Buffer{}
			cfg := cluster.Config{Machines: 2, Tracer: trace.New(buf)}
			if backend == "hostTransport" {
				cfg.Transport = newHostTransport(2)
			}
			cl := cluster.New(cfg)
			if _, err := Decompose(context.Background(), x, cl, run.opt); err != nil && (run.opt.Boundary == nil || !errors.Is(err, ErrPreempted)) {
				t.Fatalf("%s, %s: %v", backend, run.name, err)
			}
			var stages, totalErrors int64
			for _, ev := range buf.Events {
				if ev.Type != trace.StageBegin {
					continue
				}
				stages++
				if ev.Name == "total-error" {
					totalErrors++
				}
				if !allowed[ev.Name] {
					t.Errorf("%s, %s: stage %q is neither the partitioning, a column stage, nor a total error", backend, run.name, ev.Name)
				}
			}
			if got := cl.Stats().Stages; stages != run.stages || got != run.stages || totalErrors != run.totalErrors {
				t.Errorf("%s, %s: %d stage spans, Stats.Stages %d, %d of them total-error; want %d, %d of them total-error",
					backend, run.name, stages, got, totalErrors, run.stages, run.totalErrors)
			}
		}
	}
}
