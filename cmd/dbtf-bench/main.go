// Command dbtf-bench regenerates the tables and figures of the paper's
// evaluation section on scaled-down workloads. Every artifact from
// DESIGN.md's experiment index is available by its identifier.
//
// Usage:
//
//	dbtf-bench -list
//	dbtf-bench -exp fig1a [-budget 30s] [-machines 16] [-scale 1.0]
//	dbtf-bench -exp all
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dbtf"
	"dbtf/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dbtf-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dbtf-bench", flag.ContinueOnError)
	var (
		exp      = fs.String("exp", "", "experiment id (see -list), or \"all\"")
		list     = fs.Bool("list", false, "list available experiments and exit")
		budget   = fs.Duration("budget", 30*time.Second, "per-run time budget (stands in for the paper's o.o.t. walls)")
		machines = fs.Int("machines", 16, "simulated cluster size")
		scale    = fs.Float64("scale", 1.0, "workload scale factor")
		seed     = fs.Int64("seed", 1, "random seed")
		verbose  = fs.Bool("v", false, "print per-run progress")
		traceOut = fs.String("trace", "", "write a structured trace of every DBTF run to this file")
		traceFmt = fs.String("trace-format", "jsonl", "trace format: jsonl or chrome")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceFmt != "jsonl" && *traceFmt != "chrome" {
		return fmt.Errorf("-trace-format %q (want jsonl or chrome)", *traceFmt)
	}

	if *list {
		fmt.Printf("%-18s %s\n", "ID", "REPRODUCES")
		for _, e := range experiments.All() {
			fmt.Printf("%-18s %s\n", e.ID, e.Title)
		}
		return nil
	}
	if *exp == "" {
		fs.Usage()
		return fmt.Errorf("-exp is required (or -list)")
	}

	cfg := experiments.Config{
		Budget:   *budget,
		Machines: *machines,
		Scale:    *scale,
		Seed:     *seed,
	}
	if *verbose {
		cfg.Progress = os.Stderr
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		sink := dbtf.NewJSONLTrace(f)
		if *traceFmt == "chrome" {
			sink = dbtf.NewChromeTrace(f)
		}
		tracer := dbtf.NewTracer(sink)
		cfg.Tracer = tracer
		defer func() {
			if err := tracer.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "dbtf-bench: writing trace %s: %v\n", *traceOut, err)
			}
		}()
	}

	var todo []experiments.Experiment
	if *exp == "all" {
		todo = experiments.All()
	} else {
		e, ok := experiments.Lookup(*exp)
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", *exp)
		}
		todo = []experiments.Experiment{e}
	}

	for _, e := range todo {
		start := time.Now()
		tbl := e.Run(cfg)
		tbl.Format(os.Stdout)
		if *verbose {
			fmt.Fprintf(os.Stderr, "%s completed in %v\n", e.ID, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}
