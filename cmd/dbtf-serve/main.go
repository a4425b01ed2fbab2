// Command dbtf-serve runs the factorization-as-a-service job server: a
// long-lived HTTP process that accepts tensor uploads and factorization
// jobs, schedules them fairly across tenants on a bounded worker pool,
// sheds over-budget load with 429/503 + Retry-After, timeslices and
// evicts running jobs at checkpointed iteration boundaries, and
// survives crashes and restarts with zero lost jobs.
//
// Usage:
//
//	dbtf-serve -data /var/lib/dbtf [-addr 127.0.0.1:8080] [flags]
//
// The resolved address is printed to stdout as
//
//	dbtf-serve listening on <addr>
//
// so scripts can start it on an ephemeral port (-addr 127.0.0.1:0).
// SIGTERM and SIGINT drain gracefully: admission closes, running jobs
// checkpoint and requeue at their next iteration boundary, and a
// subsequent start over the same -data directory resumes every queued
// job bit-identically.
//
// With -loadtest the process instead runs the seeded chaos load test
// against itself — open-loop multi-tenant traffic, forced evictions, a
// mid-test drain + restart — then verifies zero lost jobs and factor
// bit-identity, prints the latency/throughput/fairness report, and
// exits non-zero on any violation. CI runs this as the service smoke
// test.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dbtf/internal/serve"
	"dbtf/internal/serve/loadgen"
)

func main() {
	// Each flag is bound to the serve.Config or loadgen.Scenario field it
	// sets; only the two that are not a field of either keep a local.
	cfg := serve.Config{
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	sc := loadgen.Scenario{OverQuota: true, EvictInterval: 25 * time.Millisecond}
	addr := flag.String("addr", "127.0.0.1:8080", "HTTP listen address (use :0 for an ephemeral port)")
	flag.StringVar(&cfg.DataDir, "data", "", "durable data directory (required; created if missing)")
	flag.IntVar(&cfg.MaxRunning, "max-running", 2, "concurrently running jobs")
	flag.IntVar(&cfg.Machines, "machines", 4, "simulated cluster machines per job")
	flag.IntVar(&cfg.GateSlots, "gate", 0, "host-CPU gate slots shared by all jobs (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.SliceIterations, "slice", 8, "timeslice in iterations before a busy job yields to waiters (<0 disables)")
	flag.DurationVar(&cfg.DrainTimeout, "drain", 30*time.Second, "graceful-drain budget on SIGTERM/SIGINT")
	flag.IntVar(&cfg.Admission.MaxQueued, "max-queued", 1024, "admission limit on queued+running jobs")
	flag.IntVar(&cfg.Admission.MaxQueuedPerTenant, "tenant-queued", 256, "admission limit on one tenant's queued jobs")
	flag.Int64Var(&cfg.Admission.MemoryBudget, "mem-budget", 1<<30, "admission memory budget in bytes")
	flag.Float64Var(&cfg.Admission.TenantRate, "rate", 50, "per-tenant admission rate, jobs/second")
	flag.Float64Var(&cfg.Admission.TenantBurst, "burst", 100, "per-tenant admission burst")

	loadtest := flag.Bool("loadtest", false, "run the seeded chaos load test against this binary and exit")
	flag.Int64Var(&sc.Seed, "seed", 1, "load test: workload seed")
	flag.IntVar(&sc.SmallJobs, "small", 200, "load test: number of small jobs")
	flag.IntVar(&sc.GiantJobs, "giant", 3, "load test: number of giant jobs")
	flag.IntVar(&sc.Tenants, "tenants", 4, "load test: number of well-behaved tenants")
	flag.Parse()

	var err error
	if *loadtest {
		sc.Machines = cfg.Machines
		err = runLoadTest(cfg, sc)
	} else {
		err = run(cfg, *addr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbtf-serve:", err)
		os.Exit(1)
	}
}

// run is the normal server mode: serve until SIGTERM/SIGINT, then drain.
func run(cfg serve.Config, addr string) error {
	if cfg.DataDir == "" {
		return errors.New("-data is required")
	}
	s, err := serve.New(cfg)
	if err != nil {
		return err
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("dbtf-serve listening on %s\n", lis.Addr())

	hs := &http.Server{Handler: s.Handler()}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(lis) }()

	select {
	case err := <-serveErr:
		return err
	case sig := <-sigc:
		signal.Stop(sigc)
		fmt.Printf("dbtf-serve received %v, draining\n", sig)
	}
	// Order matters: drain the job engine first (running jobs checkpoint
	// and requeue durably), then stop answering HTTP.
	s.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return err
	}
	fmt.Println("dbtf-serve drained, zero lost jobs")
	return nil
}

// runLoadTest is the -loadtest mode: a full chaos scenario against a
// server in this process, including a mid-flight drain + restart.
func runLoadTest(cfg serve.Config, sc loadgen.Scenario) error {
	if cfg.DataDir == "" {
		dir, err := os.MkdirTemp("", "dbtf-serve-loadtest-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cfg.DataDir = dir
	}
	// Load-test posture: small timeslice so giants share, tight-ish
	// budgets so shedding actually happens against the hog tenant.
	if cfg.SliceIterations == 8 {
		cfg.SliceIterations = 3
	}
	// Burst covers a well-behaved tenant's whole paced share; the hog
	// submits ~1.5x the total workload unpaced, so it blows through its
	// burst and sheds on the rate limit.
	cfg.Admission.TenantRate = 50
	perTenant := sc.SmallJobs
	if sc.Tenants > 1 {
		perTenant = sc.SmallJobs/sc.Tenants + sc.GiantJobs
	}
	cfg.Admission.TenantBurst = float64(perTenant + 10)
	cfg.DrainTimeout = 20 * time.Second

	start := func() (*serve.Server, *http.Server, string, error) {
		s, err := serve.New(cfg)
		if err != nil {
			return nil, nil, "", err
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.Drain()
			return nil, nil, "", err
		}
		hs := &http.Server{Handler: s.Handler()}
		//dbtf:detached joined semantically by hs.Shutdown in stop(), which unblocks Serve
		go func() {
			//dbtf:allow-unchecked Serve always returns ErrServerClosed after Shutdown
			hs.Serve(lis)
		}()
		return s, hs, "http://" + lis.Addr().String(), nil
	}
	stop := func(s *serve.Server, hs *http.Server) error {
		s.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return hs.Shutdown(ctx)
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	runner := loadgen.New(sc, logf)

	s1, hs1, base1, err := start()
	if err != nil {
		return err
	}
	fmt.Printf("loadtest phase 1: %s (%d small, %d giant, %d tenants, chaos every %v)\n",
		base1, sc.SmallJobs, sc.GiantJobs, sc.Tenants, sc.EvictInterval)
	if err := runner.UploadTensors(base1); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	if err := runner.SubmitAll(ctx, base1); err != nil {
		return err
	}

	// Kill the server mid-flight: drain (checkpointing the running jobs)
	// and restart over the same data directory.
	fmt.Println("loadtest: draining server mid-flight")
	if err := stop(s1, hs1); err != nil {
		return fmt.Errorf("drain/shutdown: %w", err)
	}
	s2, hs2, base2, err := start()
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	fmt.Printf("loadtest phase 2: restarted at %s, awaiting completion\n", base2)
	if err := runner.AwaitCompletion(ctx, base2); err != nil {
		return err
	}
	verified, mismatches, err := runner.Verify(base2)
	if err != nil {
		return err
	}
	rep := runner.Report(verified, mismatches)
	fmt.Println()
	fmt.Println(rep.Markdown())
	if err := stop(s2, hs2); err != nil {
		return fmt.Errorf("final shutdown: %w", err)
	}

	fmt.Printf("lost jobs: %d\n", rep.Lost)
	switch {
	case rep.Lost > 0:
		return fmt.Errorf("%d jobs lost", rep.Lost)
	case rep.Failed > 0:
		return fmt.Errorf("%d jobs failed", rep.Failed)
	case rep.VerifyMismatches > 0:
		return fmt.Errorf("%d bit-identity mismatches", rep.VerifyMismatches)
	case verified == 0:
		return errors.New("no jobs verified for bit-identity")
	}
	fmt.Println("loadtest PASS: zero lost jobs, clean drain, bit-identical resumes")
	return nil
}
