// Command dbtf factorizes a Boolean tensor file with DBTF or one of the
// paper's baseline methods.
//
// Usage:
//
//	dbtf -input triples.tns -rank 10 [-method dbtf|bcpals|walknmerge] [flags]
//
// The input format is one "i j k" line per nonzero after a header line
// "I J K" with the mode dimensions. On success the reconstruction error is
// printed and, with -output, the three factor matrices are written as
// 0/1 text files <prefix>.A, <prefix>.B, <prefix>.C.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"time"

	"dbtf"
	"dbtf/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dbtf:", err)
		os.Exit(1)
	}
}

// progressSink is -v: a trace sink that prints one line per iteration,
// checkpoint and machine liveness change, as the run emits them.
type progressSink struct {
	// iter is the open iteration; a checkpoint is written inside it.
	iter int
}

func (p *progressSink) Write(ev *dbtf.TraceEvent) error {
	switch ev.Type {
	case trace.RunBegin:
		if ev.Iteration > 0 {
			fmt.Printf("  resumed from checkpoint: iteration %d, error %d\n", ev.Iteration, *ev.Error)
		}
	case trace.IterationBegin:
		p.iter = ev.Iteration
	case trace.IterationEnd:
		// An aborted run closes its open iteration without an error.
		if ev.Error != nil {
			fmt.Printf("  iteration %d: error %d, %d entries flipped\n", ev.Iteration, *ev.Error, *ev.Flips)
		}
	case trace.Checkpoint:
		fmt.Printf("  checkpoint: iteration %d, %d bytes\n", p.iter, ev.Bytes)
	case trace.MachineLoss:
		fmt.Printf("  machine %d lost\n", ev.Machine)
	case trace.MachineRejoin:
		fmt.Printf("  machine %d rejoined\n", ev.Machine)
	}
	return nil
}

func (*progressSink) Close() error { return nil }

// sharedFlags are the flags every method reads, and methodFlags the others
// each baseline method reads; dbtf reads every flag but -mdl. A flag set
// on the command line to anything but its default that the chosen method
// does not read is refused, never silently dropped.
var (
	sharedFlags = []string{"input", "method", "rank", "budget", "output"}
	methodFlags = map[string][]string{
		"tucker":     {"maxiter", "machines", "sets", "seed"},
		"bcpals":     {"maxiter", "init"},
		"walknmerge": {"seed", "mdl"},
	}
)

// reads reports whether method reads the flag name.
func reads(method, name string) bool {
	if slices.Contains(sharedFlags, name) {
		return true
	}
	if method == "dbtf" {
		return name != "mdl"
	}
	return slices.Contains(methodFlags[method], name)
}

func run(args []string) error {
	fs := flag.NewFlagSet("dbtf", flag.ContinueOnError)
	// A flag that sets one library option is bound to that field, so there
	// is no block copying flags into options to keep in step with either;
	// a flag with no field of its own (a derived or split value, one that
	// applies per method or only with another flag) keeps a local.
	var opts dbtf.Options
	var plan dbtf.FaultPlan
	var (
		input    = fs.String("input", "", "input tensor file (required)")
		method   = fs.String("method", "dbtf", "factorization method: dbtf, tucker, bcpals, or walknmerge")
		initMode = fs.String("init", "", "initialization scheme: fiber, random, or topfiber (dbtf; default fiber) / topfiber or asso (bcpals; default topfiber)")
		chaos    = fs.Float64("chaos", 0, "inject task failures at this rate into the simulated cluster (dbtf; panics at 1/4 of the rate are injected too)")
		ckEvery  = fs.Int("checkpoint-every", 1, "checkpoint period in iterations (dbtf; requires -checkpoint-dir)")
		autoRank = fs.Int("auto-rank", 0, "select the rank by MDL up to this maximum, one run per rank under every other flag (overrides -rank; dbtf method only)")
		mdlSel   = fs.Bool("mdl", false, "use MDL model-order selection (walknmerge method only)")
		budget   = fs.Duration("budget", 0, "abort after this duration (0 = unlimited)")
		output   = fs.String("output", "", "prefix for writing factor matrices")
		workers  = fs.String("workers", "", "comma-separated dbtf-worker addresses: run on those real processes over TCP instead of the in-process simulated machines (dbtf); machine count is the address count")
		verbose  = fs.Bool("v", false, "print per-iteration progress (dbtf)")
		traceOut = fs.String("trace", "", "write a structured run trace to this file (dbtf method only)")
		traceFmt = fs.String("trace-format", "jsonl", "trace format: jsonl (analysis/tracecheck) or chrome (load in Perfetto)")
	)
	fs.IntVar(&opts.Rank, "rank", 10, "decomposition rank R")
	fs.IntVar(&opts.MaxIter, "maxiter", 10, "maximum iterations T (dbtf, tucker, bcpals)")
	fs.IntVar(&opts.Machines, "machines", 16, "simulated cluster size M (dbtf, tucker; 0 = GOMAXPROCS)")
	fs.IntVar(&opts.Partitions, "partitions", 0, "vertical partitions N (dbtf; 0 = machines)")
	fs.IntVar(&opts.InitialSets, "sets", 1, "initial factor sets L (dbtf, tucker)")
	fs.IntVar(&opts.CacheGroupBits, "groupbits", 15, "cache group bits V (dbtf)")
	fs.Int64Var(&opts.Seed, "seed", 1, "random seed (dbtf, tucker, walknmerge)")
	fs.Int64Var(&plan.Seed, "chaos-seed", 0, "seed of the fault-injection schedule (0 = -seed)")
	fs.Float64Var(&plan.MachineLossRate, "chaos-machine-loss", 0, "per-stage probability of losing each machine, in [0,1) (dbtf; survivors take over)")
	fs.IntVar(&plan.MachineRejoinAfter, "chaos-rejoin", 0, "stages after which a lost machine rejoins (dbtf; 0 = never)")
	fs.StringVar(&opts.CheckpointDir, "checkpoint-dir", "", "directory for durable iteration checkpoints (dbtf)")
	fs.BoolVar(&opts.Resume, "resume", false, "continue from the checkpoint in -checkpoint-dir (dbtf)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *input == "" {
		fs.Usage()
		return fmt.Errorf("-input is required")
	}
	// Validate flag combinations before any work starts, so a bad
	// invocation fails immediately with a clear message rather than
	// mid-run. Only the rules that are this command's own live here; the
	// library's are asked of it below (Options.Validate).
	// set holds the flags given on the command line: a flag that only
	// means something beside another, or to another method, is refused
	// there, not dropped.
	if _, ok := methodFlags[*method]; !ok && *method != "dbtf" {
		return fmt.Errorf("unknown method %q (want dbtf, tucker, bcpals, or walknmerge)", *method)
	}
	set := map[string]bool{}
	var unread []string
	fs.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		if !reads(*method, f.Name) && f.Value.String() != f.DefValue {
			unread = append(unread, "-"+f.Name)
		}
	})
	if len(unread) > 0 {
		return fmt.Errorf("-method %s does not read %s", *method, strings.Join(unread, ", "))
	}
	if *chaos < 0 || *chaos > 0.5 {
		return fmt.Errorf("-chaos %v outside [0, 0.5]", *chaos)
	}
	if *budget < 0 {
		return fmt.Errorf("-budget %v is negative (0 = unlimited)", *budget)
	}
	if *autoRank < 0 {
		return fmt.Errorf("-auto-rank %d is negative (0 = off)", *autoRank)
	}
	if set["checkpoint-every"] && opts.CheckpointDir == "" {
		return fmt.Errorf("-checkpoint-every requires -checkpoint-dir")
	}
	if opts.CheckpointDir != "" {
		if *ckEvery <= 0 {
			return fmt.Errorf("-checkpoint-every %d must be >= 1", *ckEvery)
		}
		// The period and the last boundary; the poll keeps no state, since
		// -auto-rank runs every rank under these options.
		opts.Boundary = func(t int, last bool) dbtf.Boundary {
			if t%*ckEvery == 0 || last {
				return dbtf.BoundaryCheckpoint
			}
			return dbtf.BoundaryContinue
		}
	}
	// Parse -init per method so a typo fails before the tensor is read.
	var bcpalsInit dbtf.BCPALSInit
	var err error
	switch *method {
	case "bcpals":
		bcpalsInit, err = dbtf.ParseBCPALSInit(*initMode)
	case "dbtf":
		opts.Init, err = dbtf.ParseInitScheme(*initMode)
	}
	if err != nil {
		return fmt.Errorf("-init: %v", err)
	}
	if *traceFmt != "jsonl" && *traceFmt != "chrome" {
		return fmt.Errorf("-trace-format %q (want jsonl or chrome)", *traceFmt)
	}
	if *traceOut != "" && *autoRank > 0 {
		return fmt.Errorf("-trace cannot be combined with -auto-rank")
	}
	if *workers != "" {
		if *autoRank > 0 {
			return fmt.Errorf("-workers cannot be combined with -auto-rank")
		}
		for _, a := range strings.Split(*workers, ",") {
			a = strings.TrimSpace(a)
			if a == "" {
				return fmt.Errorf("-workers %q contains an empty address", *workers)
			}
			opts.Workers = append(opts.Workers, a)
		}
		// The worker processes are the machines; the summary lines below
		// report the real cluster size.
		opts.Machines = len(opts.Workers)
	}
	// Any non-zero chaos flag installs the plan, so that an out-of-range one
	// reaches the library's check instead of being dropped as "no chaos".
	if *chaos != 0 || plan.MachineLossRate != 0 || plan.MachineRejoinAfter != 0 {
		if plan.Seed == 0 {
			plan.Seed = opts.Seed
		}
		plan.FailureRate, plan.PanicRate = *chaos, *chaos/4
		opts.Faults = &plan
	}
	if *method == "dbtf" {
		if *autoRank > 0 {
			opts.Rank = *autoRank // overrides -rank; SelectRank tries every rank up to it
		}
		if err := opts.Validate(); err != nil {
			return err
		}
	}

	x, err := dbtf.ReadTensorFile(*input)
	if err != nil {
		return err
	}
	i, j, k := x.Dims()
	fmt.Printf("tensor: %dx%dx%d, %d nonzeros (density %.4g)\n", i, j, k, x.NNZ(), x.Density())

	ctx := context.Background()
	if *budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *budget)
		defer cancel()
	}

	start := time.Now()
	var factors dbtf.Factors
	var recErr int64
	switch *method {
	case "dbtf":
		var sinks []dbtf.TraceSink
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				return err
			}
			sink := dbtf.NewJSONLTrace(f)
			if *traceFmt == "chrome" {
				sink = dbtf.NewChromeTrace(f)
			}
			sinks = append(sinks, sink)
		}
		if *verbose {
			sinks = append(sinks, &progressSink{})
		}
		if len(sinks) > 0 {
			opts.Tracer = dbtf.NewTracer(trace.NewTee(sinks...))
		}
		var res *dbtf.Result
		var err error
		if *autoRank > 0 {
			var sel *dbtf.RankSelection
			if sel, err = dbtf.SelectRank(ctx, x, opts, *autoRank); err == nil {
				res = sel.Result
				fmt.Printf("dbtf: MDL selected rank %d of max %d (%.0f bits vs %.0f baseline)\n",
					sel.Rank, *autoRank, sel.Bits[sel.Rank-1], sel.BaselineBits)
			}
		} else {
			res, err = dbtf.Factorize(ctx, x, opts)
		}
		// Close the trace even when the run failed: the deferred run-end
		// event has been emitted and a partial trace is still loadable.
		if cerr := opts.Tracer.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("writing trace %s: %w", *traceOut, cerr)
		}
		if err != nil {
			return err
		}
		if *traceOut != "" {
			fmt.Printf("trace: wrote %s (%s)\n", *traceOut, *traceFmt)
		}
		factors, recErr = res.Factors, res.Error
		if *verbose && len(res.InitialErrors) > 1 {
			fmt.Printf("  initial sets: errors %v\n", res.InitialErrors)
		}
		fmt.Printf("dbtf: %d iterations, converged=%v\n", res.Iterations, res.Converged)
		fmt.Printf("cluster: simulated %v on %d machines in %d stages; shuffled %d B, broadcast %d B, collected %d B\n",
			res.SimTime.Round(time.Millisecond), res.Machines, res.Stats.Stages,
			res.Stats.ShuffledBytes, res.Stats.BroadcastBytes, res.Stats.CollectedBytes)
		if opts.Faults != nil {
			fmt.Printf("chaos: %d injected faults, %d retries, %d machine losses, %d recoveries\n",
				res.Stats.InjectedFaults, res.Stats.Retries, res.Stats.MachineLosses, res.Stats.Recoveries)
		}
		if opts.CheckpointDir != "" {
			fmt.Printf("checkpoint: %d B written to %s\n", res.Stats.CheckpointBytes, opts.CheckpointDir)
		}
	case "bcpals":
		res, err := dbtf.FactorizeBCPALS(ctx, x, dbtf.BCPALSOptions{Rank: opts.Rank, MaxIter: opts.MaxIter, Init: bcpalsInit})
		if err != nil {
			return err
		}
		factors = dbtf.Factors{A: res.A, B: res.B, C: res.C}
		recErr = res.Error
		fmt.Printf("bcpals: %d iterations, converged=%v\n", res.Iterations, res.Converged)
	case "walknmerge":
		res, err := dbtf.FactorizeWalkNMerge(ctx, x, dbtf.WalkNMergeOptions{Rank: opts.Rank, Seed: opts.Seed, MDLSelect: *mdlSel})
		if err != nil {
			return err
		}
		factors = dbtf.Factors{A: res.A, B: res.B, C: res.C}
		recErr = res.Error
		fmt.Printf("walknmerge: %d blocks found\n", len(res.Blocks))
	case "tucker":
		res, err := dbtf.FactorizeTucker(ctx, x, dbtf.TuckerOptions{
			CPRank:      opts.Rank,
			Machines:    opts.Machines,
			InitialSets: opts.InitialSets,
			Seed:        opts.Seed,
			MaxIter:     opts.MaxIter,
		})
		if err != nil {
			return err
		}
		factors = dbtf.Factors{A: res.A, B: res.B, C: res.C}
		recErr = res.Error
		p, q, sDim := res.Core.Dims()
		fmt.Printf("tucker: core %dx%dx%d with %d ones (from CP rank %d, CP error %d)\n",
			p, q, sDim, res.Core.NNZ(), opts.Rank, res.CPError)
	}

	rel := float64(0)
	if x.NNZ() > 0 {
		rel = float64(recErr) / float64(x.NNZ())
	} else if recErr > 0 {
		rel = math.Inf(1) // no normalizer; matches metrics.RelativeError
	}
	fmt.Printf("reconstruction error: %d (relative %.4f) in %v\n", recErr, rel, time.Since(start).Round(time.Millisecond))

	if *output != "" {
		for n, m := range []*dbtf.FactorMatrix{factors.A, factors.B, factors.C} {
			path := *output + "." + string("ABC"[n])
			if err := m.WriteFile(path); err != nil {
				return err
			}
			fmt.Printf("wrote %s (%dx%d)\n", path, m.Rows(), m.Rank())
		}
	}
	return nil
}
