// Command benchmark is the repo's benchmark: four workloads that reach the
// engine through its public entry points (dbtf.Factorize in-process and
// over dbtf-worker processes, the job server's HTTP API), end-to-end
// metrics with fixed regression bounds, and a separate traced run that
// attributes the time to layers. See README.md and ../BENCHMARK.json.
//
// Usage (from the checkout root, through run.sh):
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out runs.jsonl]
//	bash benchmark/run.sh --agree a.jsonl b.jsonl
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// buildDir is where everything the benchmark writes goes, relative to the
// checkout root; .gitignore names it.
const buildDir = ".bench_build"

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
	os.Exit(code)
}

func run(args []string) (code int, err error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run: planted-eval, planted-setup, tcp-loopback, serve-openloop")
		seed    = fs.Int64("seed", 1, "seed of the generated inputs")
		seconds = fs.Int("seconds", 15, "length of the measured window in seconds")
		traced  = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		out     = fs.String("out", "", "also append the result, tagged with workload and seed, to this JSON-lines file")
		agree   = fs.Bool("agree", false, "compare two --out files given as arguments against the bounds in BENCHMARK.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2, nil // the flag package already printed the problem
	}
	if *agree {
		if fs.NArg() != 2 {
			return 2, errors.New("--agree takes two --out files")
		}
		return agreeFiles(os.Stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
	}
	w, err := workloadByName(*name)
	if err != nil {
		return 2, err
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return 2, errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}

	// Two busy threads at most, whatever the host offers: the numbers are
	// comparable only between runs with the same parallelism.
	runtime.GOMAXPROCS(2)

	// Every exit path — return, error, panic, SIGINT — kills the workers
	// and removes the run's files.
	defer runCleanups()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	scratch, err := scratchDir(filepath.Join(buildDir, "tmp"))
	if err != nil {
		return 1, err
	}
	onExit(func() { _ = os.RemoveAll(scratch) })
	e := &env{Scratch: scratch, Log: os.Stdout}
	if w.Kind == tcpWorkers || *traced == 1 {
		bin, err := buildWorker(buildDir)
		if err != nil {
			return 1, err
		}
		e.Host = &workerHost{bin: bin}
	}

	window := time.Duration(*seconds) * time.Second
	var res *result
	if *traced == 1 {
		res, err = runLayers(ctx, e, w, *seed, window)
	} else {
		res, err = runEndToEnd(ctx, e, w, *seed, window)
	}
	if err != nil {
		return 1, err
	}
	if ctx.Err() != nil {
		return 1, ctx.Err() // interrupted: a partial window is not a result
	}
	if err := res.check(); err != nil {
		return 1, err
	}
	res.print(e)
	if *out != "" {
		if err := appendRecord(*out, record{Workload: w.Name, Seed: *seed, Trace: *traced, result: *res}); err != nil {
			return 1, err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	return 0, nil
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// check refuses a result the driver could not use: a malformed name or a
// value that is not a finite number.
func (r *result) check() error {
	if r.Attempted < 1 {
		return errors.New("no op was attempted")
	}
	for name, m := range r.Metrics {
		if !metricName.MatchString(name) {
			return fmt.Errorf("metric name %q is malformed", name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return nil
}

func (r *result) print(e *env) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		e.logf("  %-44s %14.6g %s", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	e.logf("  attempted %d, failed %d, correct %v", r.Attempted, r.Failed, r.Correct)
}
