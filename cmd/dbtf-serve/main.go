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
)

func main() {
	// Each flag is bound to the serve.Config field it sets; only -addr,
	// which is not one, keeps a local.
	cfg := serve.Config{
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
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
	flag.Parse()

	if err := run(cfg, *addr); err != nil {
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
