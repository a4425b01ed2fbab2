// Command dbtf-tracecheck validates a JSONL run trace written by
// `dbtf -trace` (or `dbtf-bench -trace`) against the schema and the
// structural invariants of package internal/trace: the event types are
// known, sequence numbers strictly increase, the simulated clock is
// monotone within each run, spans pair and nest correctly, machine losses
// land on stage boundaries, and folding each run's events reproduces the
// run's final stats snapshot exactly.
//
// Usage:
//
//	dbtf-tracecheck trace.jsonl
//	dbtf -trace /dev/stdout ... | dbtf-tracecheck -
//
// On success it prints a one-line summary per stream and exits 0; the
// first violation is reported with its sequence number and exits 1, as is
// a stream that holds no completed run — an empty file is no trace.
package main

import (
	"fmt"
	"io"
	"os"
	"sort"

	"dbtf/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dbtf-tracecheck:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: dbtf-tracecheck <trace.jsonl | ->")
	}
	var r io.Reader = os.Stdin
	name := "stdin"
	if args[0] != "-" {
		f, err := os.Open(args[0])
		if err != nil {
			return err
		}
		defer f.Close()
		r, name = f, args[0]
	}
	sum, err := trace.ValidateJSONL(r)
	if err != nil {
		return err
	}
	if sum.Runs == 0 {
		return fmt.Errorf("%s: no run in trace", name)
	}
	fmt.Printf("%s: OK — %d events, %d runs, %d stages\n", name, sum.Events, sum.Runs, sum.Stages)
	types := make([]string, 0, len(sum.ByType))
	for t := range sum.ByType {
		types = append(types, string(t))
	}
	sort.Strings(types)
	for _, t := range types {
		fmt.Printf("  %-20s %d\n", t, sum.ByType[trace.Type(t)])
	}
	return nil
}
