package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dbtf"
	"dbtf/internal/partition"
)

// stages are the engine's named spans the traced run attributes time to;
// whatever a run spends outside them — dial and set-up push before the
// run span, iteration bookkeeping, checkpoints in jobs — is
// core.untraced_ms.
var stages = []string{"unfold", "partition", "init", "build", "eval", "commit", "total-error"}

// The traced run splits its window between the phases; the rest of the
// probes are sized by repeat counts, not by time.
const (
	tracedShare    = 0.20
	untracedShare  = 0.20
	variantShare   = 0.05 // each of threads=2, GOMAXPROCS=1, and the in-process reference
	transportShare = 0.15
	serveShare     = 0.15
	// probeOps is the least a phase runs however short its share.
	probeOps = 1
)

// runLayers is the traced run: it pushes the workload's own inputs
// through every layer — word kernels, set-up passes, engine stages,
// cluster variants, the TCP transport, the job server — and reports one
// figure per layer metric in BENCHMARK.json. Nothing here is gated; the
// end-to-end run measures with tracing off.
func runLayers(ctx context.Context, e *env, w workload, seed int64, window time.Duration) (_ *result, err error) {
	in, err := generate(w, seed, e.Scratch)
	if err != nil {
		return nil, err
	}
	share := func(s float64) time.Duration { return time.Duration(s * float64(window)) }
	rec := &recorder{}
	m := map[string]metric{}
	var all []outcome

	// The engine-level op: the workload's own for the Factorize
	// workloads, a bare Factorize of the job spec for the job server.
	ew := w
	if w.Kind == jobServer {
		ew.Kind = inProcess
	}
	eng, err := startEngine(ctx, ew, in, e.Host)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, eng.close()) }()
	ref := eng
	if eng.fleet != nil {
		ref = &engine{w: w, xs: eng.xs, variants: eng.variants}
		ref.w.Kind = inProcess
	}

	traced := tracedWindow(ctx, rec, eng, share(tracedShare))
	all = append(all, traced...)
	stageMetrics(m, rec.snapshot(), len(traced))
	clusterMetrics(m, traced, ew.Machines)

	cpu0 := cpuNanos(eng.fleet)
	untraced := closedLoop(ctx, share(untracedShare), probeOps, len(eng.variants), func(_, vi int) outcome { return eng.run(ctx, vi, nil) })
	cpu := cpuNanos(eng.fleet) - cpu0
	all = append(all, untraced...)
	tb, ub := bestWall(traced, len(eng.variants)), bestWall(untraced, len(eng.variants))
	m["trace.overhead_ratio"] = metric{tb/ub - 1, "ratio"}
	walls := wallsOf(untraced)
	m["cluster.sim_makespan_ms_best"] = metric{bestSim(untraced, len(eng.variants)), "ms"}
	m["dbtf.op_ms_best"] = metric{ub, "ms"}
	m["dbtf.op_ms_p50"] = metric{median(walls), "ms"}
	m["dbtf.op_ms_p90"] = metric{quantile(walls, 0.9), "ms"}
	m["dbtf.cpu_ms_per_op"] = metric{ms(cpu) / float64(len(untraced)), "ms"}

	refBest := ub
	if ref != eng {
		outs := closedLoop(ctx, share(variantShare), probeOps, len(ref.variants), func(_, vi int) outcome { return ref.run(ctx, vi, nil) })
		all = append(all, outs...)
		refBest = bestWall(outs, len(ref.variants))
	}
	for _, v := range []struct {
		name  string
		procs int
		tune  func(*dbtf.Options)
	}{
		{"cluster.threads2_op_ms_best", 2, func(o *dbtf.Options) { o.ThreadsPerMachine = 2 }},
		{"cluster.gomaxprocs1_op_ms_best", 1, func(*dbtf.Options) {}},
	} {
		prev := runtime.GOMAXPROCS(v.procs)
		outs := closedLoop(ctx, share(variantShare), probeOps, len(ref.variants), func(_, vi int) outcome {
			opt := ref.options(vi)
			v.tune(&opt)
			return factorize(ctx, ref.xs[ref.variants[vi].Input], opt, vi)
		})
		runtime.GOMAXPROCS(prev)
		all = append(all, outs...)
		m[v.name] = metric{bestWall(outs, len(ref.variants)), "ms"}
	}
	if err := checkpointProbe(ctx, m, e, ref); err != nil {
		return nil, err
	}
	// The probes below bring their own fleets; the engine's must not idle
	// beside them.
	if err := eng.close(); err != nil {
		return nil, err
	}

	tp, err := transportProbe(ctx, m, rec, e, ref, share(transportShare))
	if err != nil {
		return nil, err
	}
	all = append(all, tp...)
	sp, err := serveProbe(ctx, m, e, w, in, refBest, share(serveShare))
	if err != nil {
		return nil, err
	}
	all = append(all, sp...)

	if err := kernelProbes(m); err != nil {
		return nil, err
	}
	if err := setupProbes(m, in.Files[0]); err != nil {
		return nil, err
	}
	m["dbtf.peak_rss_mb"] = metric{peakRSSMB(), "MB"}

	if err := verify(ctx, w, in, all); err != nil {
		return nil, err
	}
	spanFile := filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.Name, seed))
	if err := os.MkdirAll(filepath.Dir(spanFile), 0o755); err != nil {
		return nil, err
	}
	if err := rec.writeFile(spanFile); err != nil {
		return nil, err
	}
	e.logf("%s seed %d traced: %d ops, %d spans in %s", w.Name, seed, len(all), len(rec.snapshot()), spanFile)

	res := &result{Attempted: len(all), Metrics: m}
	for _, o := range all {
		if o.Err != nil {
			res.Failed++
			e.logf("failed op: %v", o.Err)
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func wallsOf(outs []outcome) []float64 {
	var walls []float64
	for _, o := range outs {
		if o.Err == nil {
			walls = append(walls, ms(o.Wall.Nanoseconds()))
		}
	}
	return walls
}

func bestWall(outs []outcome, variants int) float64 {
	return bestOf(outs, variants, func(o outcome) time.Duration { return o.Wall })
}

func bestSim(outs []outcome, variants int) float64 {
	return bestOf(outs, variants, func(o outcome) time.Duration { return o.Sim })
}

// bestOf is bestPerVariant over one duration of the successful ops, in ms.
func bestOf(outs []outcome, variants int, d func(outcome) time.Duration) float64 {
	var values []float64
	var variant []int
	for _, o := range outs {
		if o.Err == nil {
			values = append(values, ms(d(o).Nanoseconds()))
			variant = append(variant, o.Variant)
		}
	}
	return bestPerVariant(values, variant, variants)
}

// tracedWindow runs the closed loop with the benchmark's spans around
// every call and the program's own event stream folded beneath them:
// op ⊃ dbtf.Factorize ⊃ run ⊃ iteration ⊃ stage.
func tracedWindow(ctx context.Context, rec *recorder, eng *engine, window time.Duration) []outcome {
	return closedLoop(ctx, window, probeOps, len(eng.variants), func(i, vi int) outcome {
		buf := &eventBuffer{}
		tracer := dbtf.NewTracer(buf)
		root := rec.begin("op", -1, i)
		call := rec.begin("dbtf.Factorize", root, i)
		o := eng.run(ctx, vi, tracer)
		rec.end(call)
		rec.end(root)
		foldEvents(rec, call, i, buf.events)
		return o
	})
}

// stageMetrics attributes the traced ops' wall time: each stage's spans
// are leaves, so their durations add up; everything else under the
// Factorize call is the self time of the spans that merely contain them.
func stageMetrics(m map[string]metric, spans []span, ops int) {
	self := selfTimes(spans)
	total := map[string]int64{}
	count := map[string]int{}
	var callTotal, untraced int64
	listed := map[string]bool{}
	for _, s := range stages {
		listed[s] = true
	}
	for _, s := range spans {
		switch {
		case s.Name == "op":
			// The root only wraps the call; its self time is the recorder's own.
		case s.Name == "dbtf.Factorize":
			callTotal += s.dur()
			untraced += self[s.ID]
		case listed[s.Name]:
			total[s.Name] += s.dur()
			count[s.Name]++
		default: // run, iteration, checkpoint, anything a later engine adds
			untraced += self[s.ID]
		}
	}
	n := float64(ops)
	for _, s := range stages {
		m["core."+s+"_ms"] = metric{ms(total[s]) / n, "ms"}
		m["core."+s+"_share"] = metric{float64(total[s]) / float64(callTotal), "ratio"}
		m["core."+s+"_count"] = metric{float64(count[s]) / n, "count"}
	}
	m["core.untraced_ms"] = metric{ms(untraced) / n, "ms"}
}

// clusterMetrics reports the simulated cluster's books per op: what
// sim_makespan_ms_best is made of.
func clusterMetrics(m map[string]metric, outs []outcome, machines int) {
	var n, tasks, compute, network, driver, task float64
	for _, o := range outs {
		if o.Err != nil {
			continue
		}
		s := o.Result.Stats
		n++
		tasks += float64(s.Tasks)
		compute += ms(s.ComputeNanos)
		network += ms(s.NetworkNanos)
		driver += ms(s.DriverNanos)
		task += ms(s.TaskNanos)
	}
	m["cluster.tasks_per_op"] = metric{tasks / n, "count"}
	m["cluster.compute_ms"] = metric{compute / n, "ms"}
	m["cluster.driver_ms"] = metric{driver / n, "ms"}
	// The network time is modeled — a latency per stage plus the formula
	// bytes over the link — so it reads the same on every run; as a share
	// of the makespan it says how much of sim_makespan the model decides.
	m["cluster.network_share"] = metric{network / (compute + network + driver), "ratio"}
	// 1.0 is a perfectly balanced cluster: the makespans sum to the task
	// time spread evenly over the machines.
	m["cluster.imbalance_ratio"] = metric{compute * float64(machines) / task, "ratio"}
}

// checkpointProbe prices durability on the workload's first variant: the
// checkpoint stage's own spans per iteration, and a Resume of a finished
// run, which loads and validates the checkpoint and has nothing left to
// iterate.
func checkpointProbe(ctx context.Context, m map[string]metric, e *env, ref *engine) error {
	const reps = 3
	var write, resume []float64
	for r := 0; r < reps; r++ {
		dir, err := os.MkdirTemp(e.Scratch, "ckpt-")
		if err != nil {
			return err
		}
		buf := &eventBuffer{}
		opt := ref.options(0)
		opt.CheckpointDir = dir
		opt.Tracer = dbtf.NewTracer(buf)
		if o := factorize(ctx, ref.xs[ref.variants[0].Input], opt, 0); o.Err != nil {
			return fmt.Errorf("checkpointed run: %w", o.Err)
		}
		rec := &recorder{}
		foldEvents(rec, -1, 0, buf.events)
		var ck int64
		for _, s := range rec.snapshot() {
			if s.Name == "checkpoint" {
				ck += s.dur()
			}
		}
		write = append(write, ms(ck)/float64(ref.w.Iters))
		opt.Tracer = nil
		opt.Resume = true
		o := factorize(ctx, ref.xs[ref.variants[0].Input], opt, 0)
		if o.Err != nil {
			return fmt.Errorf("resumed run: %w", o.Err)
		}
		resume = append(resume, ms(o.Wall.Nanoseconds()))
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	m["core.checkpoint_write_ms_per_iter"] = metric{minOf(write), "ms"}
	m["core.resume_ms"] = metric{minOf(resume), "ms"}
	return nil
}

// setupProbes times the set-up passes on the workload's first input, each
// the best of five: reading the file, the three unfoldings, and the three
// 4-way partitionings.
func setupProbes(m map[string]metric, file string) error {
	const reps = 5
	var read, unfold, build []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		x, err := dbtf.ReadTensorFile(file)
		if err != nil {
			return err
		}
		read = append(read, ms(time.Since(t0).Nanoseconds()))
		t0 = time.Now()
		us := x.UnfoldAll()
		unfold = append(unfold, ms(time.Since(t0).Nanoseconds()))
		t0 = time.Now()
		var pxs [3]*partition.Partitioned
		for i, u := range us {
			pxs[i] = partition.Build(u, 4)
		}
		build = append(build, ms(time.Since(t0).Nanoseconds()))
		for i := range pxs {
			pxs[i].Release()
			us[i].Recycle()
		}
	}
	m["tensor.read_ms"] = metric{minOf(read), "ms"}
	m["tensor.unfold_ms"] = metric{minOf(unfold), "ms"}
	m["partition.build_ms"] = metric{minOf(build), "ms"}
	return nil
}

// cpuNanos is the CPU time consumed so far by this process and, through
// /proc/<pid>/stat, by the fleet's workers.
func cpuNanos(f *fleet) int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	total := ru.Utime.Nano() + ru.Stime.Nano()
	if f == nil {
		return total
	}
	for _, c := range f.cmds {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.Process.Pid))
		if err != nil {
			continue
		}
		// Fields after the parenthesised command name; utime and stime are
		// the 14th and 15th of the line, in clock ticks of 10 ms.
		fields := strings.Fields(string(data[strings.LastIndexByte(string(data), ')')+1:]))
		if len(fields) < 13 {
			continue
		}
		ut, _ := strconv.ParseInt(fields[11], 10, 64)
		st, _ := strconv.ParseInt(fields[12], 10, 64)
		total += (ut + st) * 10_000_000
	}
	return total
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
