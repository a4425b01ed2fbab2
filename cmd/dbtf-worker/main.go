// Command dbtf-worker runs one DBTF cluster machine as a standalone OS
// process: a TCP stage server that a dbtf coordinator (cmd/dbtf with
// -workers, or dbtf.Options.Workers) dials, replicates state to,
// and ships column-update and error stages to.
//
// Usage:
//
//	dbtf-worker [-listen 127.0.0.1:0]
//
// The resolved listen address is printed to stdout as
//
//	dbtf-worker listening on <addr>
//
// so scripts (and the repo's multi-process tests) can start workers on
// ephemeral ports and harvest the addresses. The process is stateless
// across coordinator sessions — every new run begins with a setup push
// that resets it — so one long-lived worker can serve many runs, and a
// worker restarted after a crash rejoins a live run at the next stage
// boundary via the coordinator's replay.
//
// SIGTERM and SIGINT drain gracefully: the listener closes, in-flight
// stage batches finish and are answered (bounded by -drain), and the
// process exits 0. The coordinator observes the closed connection as a
// machine loss at the next stage boundary and reroutes — no batch is
// ever cut off mid-reply.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dbtf/internal/core"
	"dbtf/internal/transport/tcp"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dbtf-worker:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dbtf-worker", flag.ContinueOnError)
	var (
		listen = fs.String("listen", "127.0.0.1:0", "address to listen on (port 0 picks an ephemeral port)")
		drain  = fs.Duration("drain", 30*time.Second, "max time to wait for in-flight stage batches on SIGTERM/SIGINT")
		quiet  = fs.Bool("q", false, "suppress per-connection log lines")
	)
	// Parsed and ignored: the frozen benchmark starts its workers with
	// "-threads 1" (benchmark/fleet.go:123); goes with ROADMAP item 8.
	fs.Int("threads", 1, "deprecated and ignored: a stage task runs on one thread")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *drain <= 0 {
		return fmt.Errorf("-drain must be positive, got %v", *drain)
	}
	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	// The harvestable address line; tests and the README walkthrough
	// depend on its exact format.
	fmt.Printf("dbtf-worker listening on %s\n", lis.Addr())
	logger := log.New(os.Stderr, "dbtf-worker: ", log.LstdFlags)
	logf := logger.Printf
	if *quiet {
		logf = nil
	}

	srv := tcp.NewServer(core.NewWorker(), logf)
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	draining := make(chan struct{})
	shutDone := make(chan error, 1)
	go func() {
		sig := <-sigc
		signal.Stop(sigc)
		// Harvestable like the address line: tests assert the drain ran.
		fmt.Printf("dbtf-worker received %v, draining\n", sig)
		close(draining)
		shutDone <- srv.Shutdown(*drain)
	}()

	if err := srv.Serve(lis); err != nil {
		return err
	}
	select {
	case <-draining:
		// Serve unblocked because of the signal; wait for the drain.
		return <-shutDone
	default:
		// Serve ended without a signal (listener closed externally).
		return nil
	}
}
